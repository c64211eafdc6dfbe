// Command lnaload is the synthetic traffic generator for lnaservd: it
// submits jobs from several simulated tenants at configured rates and
// reports, per tenant, how admission control and load shedding treated the
// traffic — accepted, deduplicated, rate-limited (429), shed or refused
// (503) — plus the observed submit latency.
//
// Usage:
//
//	lnaload [-url http://127.0.0.1:8080] [-duration 10s] [-seed 1]
//	        [-tenants burst:20,steady:5,probe:1] [-type design] [-quick]
//
// The -tenants spec is a comma list of name:ratePerSec pairs; each tenant
// submits at that rate with deterministic jitter (seeded, so two runs of
// lnaload against an idle server produce the same request schedule). The
// exit report includes the server's final /healthz document, so an overload
// run shows the queue depth stayed bounded while the over-quota tenant —
// and only that tenant — absorbed the 429s.
//
// With -soak, the generator additionally tracks every accepted job to its
// terminal state after the traffic window closes and reports per tenant the
// end-to-end (submit→done, server-stamped) latency percentiles p50/p95/p99
// plus a Jain fairness index over per-tenant completions — 1.0 is perfectly
// even service; equal-policy tenants on a healthy server should stay ≥ 0.95.
// This is the sustained-load mode `make soak-smoke` drives.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"gnsslna/internal/mathx"
)

type tenantLoad struct {
	name string
	rate float64
}

type tenantStats struct {
	submitted, accepted, deduped, rate429, refused503, errors int
	latency                                                   time.Duration
}

func parseTenants(spec string) ([]tenantLoad, error) {
	var out []tenantLoad
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, rateStr, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("tenant %q: want name:ratePerSec", part)
		}
		rate, err := strconv.ParseFloat(rateStr, 64)
		if err != nil || rate <= 0 {
			return nil, fmt.Errorf("tenant %q: bad rate %q", name, rateStr)
		}
		out = append(out, tenantLoad{name: name, rate: rate})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -tenants spec")
	}
	return out, nil
}

func main() {
	url := flag.String("url", "http://127.0.0.1:8080", "lnaservd base `URL`")
	duration := flag.Duration("duration", 10*time.Second, "traffic duration")
	seed := flag.Int64("seed", 1, "deterministic request-schedule seed")
	tenantsSpec := flag.String("tenants", "burst:20,steady:5,probe:1", "comma list of tenant:ratePerSec")
	jobType := flag.String("type", "design", "job type to submit (design, extract, sweep)")
	quick := flag.Bool("quick", true, "submit quick-budget jobs")
	soak := flag.Bool("soak", false, "track accepted jobs to terminal and report per-tenant latency percentiles + fairness")
	drain := flag.Duration("drain", 60*time.Second, "soak mode: bound on waiting for accepted jobs to finish")
	flag.Parse()

	tenants, err := parseTenants(*tenantsSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lnaload:", err)
		os.Exit(1)
	}

	stats := make(map[string]*tenantStats, len(tenants))
	for _, tl := range tenants {
		stats[tl.name] = &tenantStats{}
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	var soakJobs []soakJob
	client := &http.Client{Timeout: 10 * time.Second}
	stop := time.Now().Add(*duration)

	for i, tl := range tenants {
		wg.Add(1)
		go func(ord int, tl tenantLoad) {
			defer wg.Done()
			// Deterministic per-tenant jitter: the inter-arrival times are a
			// fixed function of (seed, tenant ordinal).
			rng := rand.New(rand.NewSource(*seed + int64(ord)*1_000_003))
			period := time.Duration(float64(time.Second) / tl.rate)
			st := stats[tl.name]
			for n := 0; time.Now().Before(stop); n++ {
				spec := map[string]any{
					"type": *jobType, "tenant": tl.name, "quick": *quick,
					"seed": *seed + int64(n),
				}
				body, _ := json.Marshal(spec)
				t0 := time.Now()
				resp, err := client.Post(*url+"/jobs", "application/json", bytes.NewReader(body))
				dt := time.Since(t0)
				mu.Lock()
				st.submitted++
				st.latency += dt
				if err != nil {
					st.errors++
				} else {
					data, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					switch resp.StatusCode {
					case http.StatusAccepted:
						st.accepted++
						if *soak {
							var j struct {
								ID string `json:"id"`
							}
							if json.Unmarshal(data, &j) == nil && j.ID != "" {
								soakJobs = append(soakJobs, soakJob{tenant: tl.name, id: j.ID})
							}
						}
					case http.StatusOK:
						st.deduped++
					case http.StatusTooManyRequests:
						st.rate429++
					case http.StatusServiceUnavailable:
						st.refused503++
					default:
						st.errors++
					}
				}
				mu.Unlock()
				// Jittered pacing in [0.5, 1.5) periods keeps tenants from
				// phase-locking while preserving the average rate.
				time.Sleep(time.Duration((0.5 + rng.Float64()) * float64(period)))
			}
		}(i, tl)
	}
	wg.Wait()

	names := make([]string, 0, len(stats))
	for n := range stats {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%-10s %9s %9s %8s %8s %8s %7s %10s\n",
		"tenant", "submitted", "accepted", "deduped", "429", "503", "errors", "avg-submit")
	for _, n := range names {
		st := stats[n]
		avg := time.Duration(0)
		if st.submitted > 0 {
			avg = st.latency / time.Duration(st.submitted)
		}
		fmt.Printf("%-10s %9d %9d %8d %8d %8d %7d %10s\n",
			n, st.submitted, st.accepted, st.deduped, st.rate429, st.refused503, st.errors, avg.Round(time.Microsecond))
	}

	if *soak {
		soakReport(client, *url, soakJobs, *drain)
	}

	// The server's own view closes the report: depth bounded, still ready.
	resp, err := client.Get(*url + "/healthz")
	if err == nil {
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		fmt.Printf("healthz: %s\n", bytes.TrimSpace(data))
	}
}

// soakJob is one accepted submission being tracked to its terminal state.
type soakJob struct{ tenant, id string }

// terminalStates mirrors the server's JobState.Terminal set.
var terminalStates = map[string]bool{
	"succeeded": true, "failed": true, "canceled": true, "quarantined": true,
}

// soakReport polls every accepted job until terminal (or the drain bound),
// then prints per-tenant end-to-end latency percentiles from the
// server-stamped submit/done timestamps and the Jain fairness index over
// per-tenant completion counts.
func soakReport(client *http.Client, url string, jobs []soakJob, bound time.Duration) {
	fmt.Printf("soak: tracking %d accepted jobs to terminal (bound %s)\n", len(jobs), bound)
	type doneJob struct {
		State       string `json:"state"`
		SubmittedMS int64  `json:"submitted_ms"`
		DoneMS      int64  `json:"done_ms"`
	}
	latencies := map[string][]float64{}
	completed := map[string]int{}
	tenants := map[string]bool{}
	for _, j := range jobs {
		tenants[j.tenant] = true
	}
	pending := append([]soakJob(nil), jobs...)
	deadline := time.Now().Add(bound)
	for len(pending) > 0 && time.Now().Before(deadline) {
		var still []soakJob
		for _, j := range pending {
			resp, err := client.Get(url + "/jobs/" + j.id)
			if err != nil {
				still = append(still, j)
				continue
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			var doc doneJob
			if json.Unmarshal(data, &doc) != nil || !terminalStates[doc.State] {
				still = append(still, j)
				continue
			}
			completed[j.tenant]++
			if doc.DoneMS >= doc.SubmittedMS {
				latencies[j.tenant] = append(latencies[j.tenant], float64(doc.DoneMS-doc.SubmittedMS))
			}
		}
		pending = still
		if len(pending) > 0 {
			time.Sleep(50 * time.Millisecond)
		}
	}
	if n := len(pending); n > 0 {
		fmt.Printf("soak: %d jobs still not terminal at the drain bound\n", n)
	}

	names := make([]string, 0, len(tenants))
	for n := range tenants {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%-10s %9s %9s %9s %9s %9s\n",
		"tenant", "accepted", "completed", "p50_ms", "p95_ms", "p99_ms")
	accepted := map[string]int{}
	for _, j := range jobs {
		accepted[j.tenant]++
	}
	for _, n := range names {
		lats := append([]float64(nil), latencies[n]...)
		sort.Float64s(lats)
		fmt.Printf("%-10s %9d %9d %9.1f %9.1f %9.1f\n",
			n, accepted[n], completed[n],
			mathx.RankPercentile(lats, 0.50), mathx.RankPercentile(lats, 0.95), mathx.RankPercentile(lats, 0.99))
	}
	fmt.Printf("fairness %.4f (jain index over completed jobs, %d tenants)\n",
		jainIndex(names, completed), len(names))
}

// jainIndex is Jain's fairness index (sum x)^2 / (n * sum x^2) over the
// tenants' completion counts: 1.0 is perfectly even service, 1/n is one
// tenant taking everything. Zero when nothing completed.
func jainIndex(names []string, completed map[string]int) float64 {
	var sum, sumSq float64
	for _, n := range names {
		x := float64(completed[n])
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 || len(names) == 0 {
		return 0
	}
	return sum * sum / (float64(len(names)) * sumSq)
}

GO ?= go
BENCHTIME ?= 0.2s
FUZZTIME ?= 30s

.PHONY: verify fmt vet staticcheck build test race bench-check bench bench-gate bench-smoke bench-workers chaos chaos-servd verify-invariants fuzz-smoke trace-smoke servd-smoke soak-smoke campaign-smoke

# verify is the tier-1 gate: formatting, vet, staticcheck (when installed),
# build, the full test suite, a race pass over the concurrently-exercised
# packages, and the benchmark module's vet and tests.
verify: fmt vet staticcheck build test race bench-check

fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# staticcheck is optional tooling: run it when the binary is on PATH, skip
# (loudly) when it is not, so the gate works in hermetic containers.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -count=1 ./internal/obs ./internal/obs/export ./internal/obs/replay ./internal/optim ./internal/resilience ./internal/resilience/chaostest ./internal/core ./internal/extract ./internal/experiments ./internal/serve ./internal/verify ./internal/campaign ./internal/rfpassive

# bench-check vets and tests the benchmark module (bench/, its own Go module
# outside ./...), so a change that breaks an API the benchmark calls fails
# here instead of in a benchmark run.
bench-check:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# verify-invariants runs the correctness harness: the physics-invariant
# sweeps and differential cross-checks of internal/verify, the regression
# tests for every bug the harness has found so far, and the bit-for-bit
# fences of the DC grid kernels and Mat2.Inv's screen (-count=1 defeats
# the cache so the sweeps really execute).
verify-invariants:
	$(GO) test -count=1 ./internal/verify/ ./internal/twoport/ ./internal/mna/ ./internal/touchstone/ ./internal/units/ ./internal/mathx/ ./internal/rfpassive/ ./internal/device/

# fuzz-smoke gives each native fuzz target a bounded budget (FUZZTIME per
# target) on top of the committed seed corpora. Go allows one fuzz target
# per invocation, hence one run per target.
fuzz-smoke:
	$(GO) test -fuzz=FuzzRead -fuzztime=$(FUZZTIME) ./internal/touchstone/
	$(GO) test -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/units/
	$(GO) test -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/obs/replay/
	$(GO) test -fuzz=FuzzInvMatchesHadamard -fuzztime=$(FUZZTIME) ./internal/twoport/

# trace-smoke is the end-to-end check of the causal tracing plane: a quick
# parallel lnaopt run writes a journal, obsreport reconstructs the span tree
# and exports Chrome trace-event JSON, and the JSON is validated (the
# exporter errors on a journal without trace spans, so an untraced run
# fails the target).
trace-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/lnaopt -quick -workers 2 -journal "$$tmp/run.jsonl" >/dev/null && \
	$(GO) run ./cmd/obsreport trace -tree "$$tmp/run.jsonl" > "$$tmp/tree.txt" && \
	head -5 "$$tmp/tree.txt" && \
	$(GO) run ./cmd/obsreport trace -perfetto "$$tmp/run.jsonl" > "$$tmp/trace.json" && \
	grep -q '"traceEvents"' "$$tmp/trace.json" && \
	echo "trace-smoke: OK ($$(wc -c < "$$tmp/trace.json") bytes of trace JSON)"

# servd-smoke boots a real lnaservd on a loopback port, drives it with
# lnaload for a few seconds of multi-tenant traffic, and asserts that jobs
# were accepted, the queue stayed healthy, and SIGTERM drains cleanly
# ("restart resumes the queue" is the daemon's last word on success).
servd-smoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/lnaservd" ./cmd/lnaservd; \
	$(GO) build -o "$$tmp/lnaload" ./cmd/lnaload; \
	"$$tmp/lnaservd" -addr 127.0.0.1:18406 -dir "$$tmp/data" -workers 2 \
		> /dev/null 2> "$$tmp/servd.log" & pid=$$!; \
	trap 'kill "$$pid" 2>/dev/null || true; rm -rf "$$tmp"' EXIT; \
	for i in $$(seq 1 50); do \
		curl -sf http://127.0.0.1:18406/healthz >/dev/null 2>&1 && break; sleep 0.1; \
	done; \
	"$$tmp/lnaload" -url http://127.0.0.1:18406 -duration 3s -tenants smoke:4 > "$$tmp/load.txt"; \
	cat "$$tmp/load.txt"; \
	grep -Eq 'smoke +[0-9]+ +[1-9]' "$$tmp/load.txt"; \
	grep -q '"state":"ready"' "$$tmp/load.txt"; \
	kill -TERM "$$pid"; wait "$$pid"; \
	grep -q 'restart resumes the queue' "$$tmp/servd.log"; \
	echo "servd-smoke: OK"

# soak-smoke boots lnaservd and drives two equal-policy tenants through
# lnaload -soak: every accepted job is tracked to its terminal state, the
# report must carry per-tenant p50/p95/p99 end-to-end latency, and the Jain
# fairness index over completions must stay >= 0.95 (equal policy on a
# healthy server means even service).
soak-smoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/lnaservd" ./cmd/lnaservd; \
	$(GO) build -o "$$tmp/lnaload" ./cmd/lnaload; \
	"$$tmp/lnaservd" -addr 127.0.0.1:18407 -dir "$$tmp/data" -workers 4 \
		> /dev/null 2> "$$tmp/servd.log" & pid=$$!; \
	trap 'kill "$$pid" 2>/dev/null || true; rm -rf "$$tmp"' EXIT; \
	for i in $$(seq 1 50); do \
		curl -sf http://127.0.0.1:18407/healthz >/dev/null 2>&1 && break; sleep 0.1; \
	done; \
	"$$tmp/lnaload" -url http://127.0.0.1:18407 -duration 4s -drain 60s -soak \
		-tenants alpha:3,beta:3 > "$$tmp/soak.txt"; \
	cat "$$tmp/soak.txt"; \
	grep -q 'p50_ms' "$$tmp/soak.txt"; \
	grep -Eq 'alpha +[0-9]+ +[1-9]' "$$tmp/soak.txt"; \
	grep -Eq 'beta +[0-9]+ +[1-9]' "$$tmp/soak.txt"; \
	fair=$$(awk '/^fairness/ {print $$2}' "$$tmp/soak.txt"); \
	awk -v f="$$fair" 'BEGIN { exit !(f >= 0.95) }'; \
	kill -TERM "$$pid"; wait "$$pid"; \
	echo "soak-smoke: OK (fairness $$fair)"

# campaign-smoke drives the committed two-cell smoke campaign end to end
# through the real CLI: run it, assert both artifacts exist, delete the
# summary and re-run (every cell must restore from the checkpoint and the
# regenerated summary must be byte-identical), pass the check publish gate,
# then run a second copy and prove campaign-diff reports identity.
campaign-smoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/campaign" ./cmd/campaign; \
	$(GO) build -o "$$tmp/obsreport" ./cmd/obsreport; \
	"$$tmp/campaign" run -spec examples/campaigns/smoke.yaml -out "$$tmp/a" -parallel 2 2> "$$tmp/run1.log"; \
	test -s "$$tmp/a/campaign.summary.json"; test -s "$$tmp/a/RESULTS.md"; \
	cp "$$tmp/a/campaign.summary.json" "$$tmp/first.json"; \
	rm "$$tmp/a/campaign.summary.json"; \
	"$$tmp/campaign" run -spec examples/campaigns/smoke.yaml -out "$$tmp/a" 2> "$$tmp/run2.log"; \
	grep -q '2 restored from checkpoint' "$$tmp/run2.log"; \
	cmp "$$tmp/first.json" "$$tmp/a/campaign.summary.json"; \
	"$$tmp/campaign" check -out "$$tmp/a"; \
	"$$tmp/campaign" run -spec examples/campaigns/smoke.yaml -out "$$tmp/b" -parallel 2 2> /dev/null; \
	"$$tmp/obsreport" campaign-diff "$$tmp/a/campaign.summary.json" "$$tmp/b/campaign.summary.json" > "$$tmp/diff.txt"; \
	cat "$$tmp/diff.txt"; \
	grep -q 'identical: 2 cells' "$$tmp/diff.txt"; \
	echo "campaign-smoke: OK (resume byte-identical, diff identical)"

# chaos runs the deterministic fault-injection suite under the race
# detector; -count=1 defeats the test cache so faults are re-injected.
chaos:
	$(GO) test -race -count=1 ./internal/resilience/...

# chaos-servd runs the job-server chaos proofs — SIGKILL crash recovery,
# bit-identical checkpoint resume, journal corruption with bounded loss,
# poisoned objectives, and clock skew — under the race detector.
chaos-servd:
	$(GO) test -race -count=1 -run 'TestChaos' ./internal/serve/

# bench appends the next BENCH_<n>.json point to the benchmark trajectory;
# bench-gate compares the two newest points and fails on a >10% ns/op
# regression (see README "Benchmark trajectory").
bench:
	$(GO) run ./cmd/benchgate run -benchtime $(BENCHTIME)

bench-gate:
	$(GO) run ./cmd/benchgate compare

# bench-smoke executes every benchmark exactly once: no timing is recorded,
# it only proves the benchmark bodies still run (a broken bench otherwise
# surfaces first during a trajectory recording).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

# bench-workers runs only the Workers benchmark variants (serial pipelines
# with the evaluation fan-out at NumCPU width) for a quick parallel-path
# wall-clock check without recording a trajectory point.
bench-workers:
	$(GO) test -run '^$$' -bench 'Workers$$' -benchmem -benchtime $(BENCHTIME) .

package optim

import (
	"context"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"gnsslna/internal/obs"
)

// EvalPool fans a batch of independent candidate evaluations across a fixed
// number of worker goroutines and writes each result back by index, so a
// generational solver can evaluate its population concurrently without
// disturbing the serial algorithm: all randomness stays on the driver
// goroutine, workers only call the objective, and the driver consumes the
// results in the same index order it would have produced them serially. The
// trajectory (RNG stream, selection order, best-so-far) is therefore
// bit-identical for any worker count.
//
// Workers <= 1 (including a nil pool) evaluates on the calling goroutine,
// byte-for-byte today's serial behavior with zero goroutine overhead.
//
// Objectives handed to a pool with Workers > 1 must be safe for concurrent
// calls. resilience.Safe / resilience.SafeVector wrappers qualify: their
// fault gate is built on atomics, so panic quarantine, NaN/Inf penalties and
// circuit-breaker counts merge race-free across workers. A panic that
// escapes the objective itself is captured, the remaining evaluations of the
// batch finish, and the panic is re-raised on the driver goroutine — the
// pool never deadlocks and never loses a batch.
//
// When a batch runs under a traced emitter the pool additionally attributes
// the work: each worker is labeled for pprof (worker=N, composed with the
// solver's phase/solver labels), emits one worker-attributed child span per
// batch, and feeds per-candidate latencies to the trace's outlier detector,
// which flags evaluations far beyond the scope's p99 with the offending
// candidate index. None of that path is entered for untraced batches.
type EvalPool struct {
	workers int
}

// batchTrace carries the per-batch trace context a traced emitter hands the
// pool: where to emit worker spans, which generation span to parent them
// under, and the labeled ctx pprof worker labels derive from.
type batchTrace struct {
	ctx    context.Context
	tr     *obs.Traced
	parent obs.SpanID
	scope  string
	det    *obs.OutlierDetector
}

// observeEval feeds one candidate's latency to the outlier detector and
// journals a flagged sample (scope "<scope>.outlier", Gen = candidate
// index) when it lands beyond the detector's p99 gate.
func (bt *batchTrace) observeEval(i int, ms float64) {
	if bt.det != nil && bt.det.Observe(bt.scope, ms) {
		bt.tr.Observe(obs.Event{
			Kind:  obs.KindSample,
			Scope: bt.scope + ".outlier",
			Gen:   i,
			Value: ms,
		})
	}
}

// endWorker closes one worker's share of a batch as a span-end record:
// Worker carries the 1-based worker ordinal, Evals the candidates it
// claimed, Value its busy wall time. The span is allocated at close (worker
// spans are leaves; replay reconstructs the begin from t_ms - wall_ms).
func (bt *batchTrace) endWorker(g, count int, start time.Time) {
	if count == 0 {
		return
	}
	bt.tr.Observe(obs.Event{
		Kind:   obs.KindSpanEnd,
		Scope:  bt.scope + ".worker",
		Evals:  int64(count),
		Value:  float64(time.Since(start)) / float64(time.Millisecond),
		Span:   bt.tr.Tracer().NewSpan(),
		Parent: bt.parent,
		Worker: g + 1,
	})
}

// NewEvalPool returns a pool that runs batches on up to workers goroutines.
// Values <= 1 yield a serial pool.
func NewEvalPool(workers int) *EvalPool {
	if workers < 1 {
		workers = 1
	}
	return &EvalPool{workers: workers}
}

// Workers reports the pool's worker count (1 for a nil or serial pool).
func (p *EvalPool) Workers() int {
	if p == nil || p.workers < 1 {
		return 1
	}
	return p.workers
}

// Each runs fn(i) for every i in [0, n), fanning the calls across the pool's
// workers. Indices are claimed from an atomic cursor, so each is evaluated
// exactly once; fn must write its result into caller-owned storage at slot i.
// The first panic raised by fn is re-thrown on the calling goroutine after
// all workers have drained.
func (p *EvalPool) Each(n int, fn func(i int)) {
	p.each(n, fn, nil)
}

// each is Each plus optional per-batch trace attribution.
func (p *EvalPool) each(n int, fn func(i int), bt *batchTrace) {
	if n <= 0 {
		return
	}
	w := p.Workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		if bt == nil {
			for i := 0; i < n; i++ {
				fn(i)
			}
			return
		}
		for i := 0; i < n; i++ {
			t0 := time.Now()
			fn(i)
			bt.observeEval(i, float64(time.Since(t0))/float64(time.Millisecond))
		}
		return
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicked any
		sawPanic bool
	)
	claim := func(g int) {
		var start time.Time
		count := 0
		if bt != nil {
			start = time.Now()
		}
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				break
			}
			var t0 time.Time
			if bt != nil {
				t0 = time.Now()
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						panicMu.Lock()
						if !sawPanic {
							sawPanic = true
							panicked = r
						}
						panicMu.Unlock()
					}
				}()
				fn(i)
			}()
			if bt != nil {
				bt.observeEval(i, float64(time.Since(t0))/float64(time.Millisecond))
			}
			count++
		}
		if bt != nil {
			bt.endWorker(g, count, start)
		}
	}
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if bt == nil {
				// Untraced workers still inherit the spawning goroutine's
				// pprof labels (phase/solver) automatically.
				claim(g)
				return
			}
			pprof.Do(obs.WorkerCtx(bt.ctx, g), pprof.Labels(), func(context.Context) {
				claim(g)
			})
		}(g)
	}
	wg.Wait()
	if sawPanic {
		panic(panicked)
	}
}

// mapVector evaluates the vector objective at every xs[i] and stores the
// returned slice in out[i], with optional trace attribution (bt may be nil).
func (p *EvalPool) mapVector(f VectorObjective, xs [][]float64, out [][]float64, bt *batchTrace) {
	p.each(len(xs), func(i int) { out[i] = f(xs[i]) }, bt)
}

// evalBatch evaluates the batch through the pool while keeping every piece
// of counter bookkeeping on the driver goroutine: workers only call the raw
// objective, and the eval tally (local count plus controller budget) is
// charged exactly once per candidate before the batch runs — the same total,
// in the same generation, as the serial loop. With a serial pool it is
// exactly the historical eval-per-candidate loop. bounds holds each
// candidate's bound for a bounded counter (nil: +Inf); an evaluation that
// stops early still counts as one.
func (c *counter) evalBatch(p *EvalPool, xs [][]float64, bounds, out []float64) {
	var bt *batchTrace
	if c.em != nil {
		bt = c.em.batch()
	}
	if p.Workers() <= 1 {
		for i := range xs {
			var t0 time.Time
			if bt != nil {
				t0 = time.Now()
			}
			c.n++
			c.ctrl.AddEvals(1)
			out[i] = c.call(xs, bounds, i)
			if bt != nil {
				bt.observeEval(i, float64(time.Since(t0))/float64(time.Millisecond))
			}
		}
		return
	}
	c.n += len(xs)
	c.ctrl.AddEvals(len(xs))
	p.each(len(xs), func(i int) { out[i] = c.call(xs, bounds, i) }, bt)
}

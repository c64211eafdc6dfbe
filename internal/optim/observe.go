package optim

import (
	"context"
	"time"

	"gnsslna/internal/obs"
)

// Default event scopes for the instrumented optimizers.
const (
	scopeDE     = "optim.de"
	scopeNSGA2  = "optim.nsga2"
	scopeLM     = "optim.lm"
	scopeNM     = "optim.nm"
	scopeAttain = "optim.attain"
)

// emitter funnels an optimizer loop's progress into an obs.Observer. It is
// a plain value (no pointer indirection, no allocation) and every method is
// a single branch when the observer is nil, so the optimizers can emit
// unconditionally from their hot loops.
//
// When the observer is a *obs.Traced the emitter becomes the solver's run
// span: a child span is allocated up front, generation events carry their
// own per-generation spans (allocated by beginGen before each batch so pool
// workers can parent under them), and the done event closes the run span.
// For any other observer the span IDs stay zero and the emitted events are
// byte-identical to the pre-trace protocol.
type emitter struct {
	o       obs.Observer
	scope   string
	start   time.Time
	tr      *obs.Traced // run-span observer when o is traced, else nil
	genSpan obs.SpanID  // span of the generation currently evaluating
	ctx     context.Context
}

// newEmitter resolves the scope (falling back to def) and stamps the run
// start for wall-time reporting. A traced observer is narrowed to a fresh
// child span for the solver run.
func newEmitter(o obs.Observer, scope, def string) emitter {
	if scope == "" {
		scope = def
	}
	e := emitter{o: o, scope: scope}
	if o != nil {
		e.start = time.Now()
		if tr, ok := o.(*obs.Traced); ok {
			child := tr.NewChild()
			e.o, e.tr = child, child
		}
	}
	return e
}

// observer returns the observer nested stages should emit through, so their
// runs parent under this emitter's span when tracing is on.
func (e *emitter) observer() obs.Observer { return e.o }

func (e *emitter) wallMs() float64 {
	return float64(time.Since(e.start)) / float64(time.Millisecond)
}

// beginGen opens the span for the next generation's evaluation batch. It
// must run before the batch so worker spans observed during evaluation can
// parent under the generation; untraced it is a single nil check.
func (e *emitter) beginGen() {
	if e.tr != nil {
		e.genSpan = e.tr.Tracer().NewSpan()
	}
}

// batch assembles the trace context the EvalPool threads through one
// evaluation batch, or nil when untraced (the pool then runs the historical
// zero-overhead path).
func (e *emitter) batch() *batchTrace {
	if e.tr == nil {
		return nil
	}
	return &batchTrace{
		ctx:    e.ctx,
		tr:     e.tr,
		parent: e.genSpan,
		scope:  e.scope,
		det:    e.tr.Tracer().Outliers(),
	}
}

// gen emits a per-generation convergence record under the span beginGen
// opened (or span zero when untraced / never begun).
func (e *emitter) gen(gen, evals int, best float64) {
	if e.o == nil {
		return
	}
	e.o.Observe(obs.Event{
		Kind:  obs.KindGeneration,
		Scope: e.scope,
		Gen:   gen,
		Evals: int64(evals),
		Best:  best,
		Value: e.wallMs(),
		Span:  e.genSpan,
	})
}

// done closes the run with its total evaluation count and final best.
func (e *emitter) done(evals int, best float64) {
	if e.o == nil {
		return
	}
	e.o.Observe(obs.Event{
		Kind:  obs.KindDone,
		Scope: e.scope,
		Evals: int64(evals),
		Best:  best,
		Value: e.wallMs(),
	})
}

// profRun wraps one solver invocation in pprof labels (phase "optim" plus
// the solver name) so CPU profiles segment by algorithm; the labeled ctx is
// handed to the solver body for worker-level label derivation in the pool.
func profRun(solver string, body func(ctx context.Context) (Result, error)) (Result, error) {
	var res Result
	var err error
	obs.ProfDo("optim", solver, func(ctx context.Context) {
		res, err = body(ctx)
	})
	return res, err
}

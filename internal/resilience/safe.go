package resilience

import (
	"math"
	"sync/atomic"

	"gnsslna/internal/obs"
)

// DefaultPenalty is the objective value substituted for quarantined
// evaluations: large enough that no optimizer keeps a quarantined point,
// finite so the surrogate surface stays usable.
const DefaultPenalty = 1e12

// SafeOptions configures Safe and SafeVector.
type SafeOptions struct {
	// Penalty is the substituted objective value for quarantined
	// evaluations (default DefaultPenalty).
	Penalty float64
	// BreakerK trips the circuit breaker after this many consecutive
	// quarantined evaluations (0: breaker disabled).
	BreakerK int
	// Control receives the breaker trip so polling solvers stop with
	// Stopped{StopBreaker} (nil: the breaker only counts).
	Control *RunController
	// Observer receives a KindFault event per quarantined evaluation and a
	// KindBreaker event per trip (nil: disabled).
	Observer obs.Observer
	// Scope labels emitted events (default "resilience.safe").
	Scope string
}

// faultGate is the shared quarantine/breaker state behind Safe and
// SafeVector. Counters are atomic so chaos tests can hammer a gate from
// racing goroutines.
type faultGate struct {
	penalty float64
	k       int64
	ctrl    *RunController
	o       obs.Observer
	scope   string

	consec    atomic.Int64
	panics    atomic.Int64
	nonFinite atomic.Int64
	trips     atomic.Int64
}

func newGate(opts *SafeOptions) *faultGate {
	g := &faultGate{penalty: DefaultPenalty, scope: "resilience.safe"}
	if opts != nil {
		if opts.Penalty != 0 {
			g.penalty = opts.Penalty
		}
		g.k = int64(opts.BreakerK)
		g.ctrl = opts.Control
		g.o = opts.Observer
		if opts.Scope != "" {
			g.scope = opts.Scope
		}
	}
	return g
}

// good resets the consecutive-fault streak.
func (g *faultGate) good() { g.consec.Store(0) }

// bad quarantines one evaluation: it bumps the fault counters, emits the
// fault event, and trips the breaker when the consecutive streak reaches K.
func (g *faultGate) bad(panicked bool) float64 {
	if panicked {
		g.panics.Add(1)
	} else {
		g.nonFinite.Add(1)
	}
	if g.o != nil {
		g.o.Observe(obs.Event{Kind: obs.KindFault, Scope: g.scope, Value: g.penalty})
	}
	n := g.consec.Add(1)
	if g.k > 0 && n >= g.k {
		g.ctrl.TripBreaker()
		if n == g.k {
			g.trips.Add(1)
			if g.o != nil {
				g.o.Observe(obs.Event{Kind: obs.KindBreaker, Scope: g.scope, Value: float64(n)})
			}
		}
	}
	return g.penalty
}

// Safe wraps a scalar objective so user-code faults cannot corrupt or kill
// a run: panics are recovered and NaN/±Inf returns are quarantined, both
// substituted with the penalty value, counted, and reported to the
// observer; K consecutive faults trip the controller's circuit breaker.
type Safe struct {
	f func([]float64) float64
	g *faultGate
}

// NewSafe wraps f. A nil opts uses the defaults (penalty substitution only,
// no breaker).
func NewSafe(f func([]float64) float64, opts *SafeOptions) *Safe {
	return &Safe{f: f, g: newGate(opts)}
}

// Eval evaluates the wrapped objective with quarantine.
func (s *Safe) Eval(x []float64) (out float64) {
	defer func() {
		if r := recover(); r != nil {
			out = s.g.bad(true)
		}
	}()
	v := s.f(x)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return s.g.bad(false)
	}
	s.g.good()
	return v
}

// Objective returns the wrapped objective as a plain function, assignable
// to optim.Objective.
func (s *Safe) Objective() func([]float64) float64 { return s.Eval }

// Panics returns the number of recovered panics.
func (s *Safe) Panics() int64 { return s.g.panics.Load() }

// NonFinite returns the number of quarantined NaN/±Inf returns.
func (s *Safe) NonFinite() int64 { return s.g.nonFinite.Load() }

// BreakerTrips returns the number of circuit-breaker trips.
func (s *Safe) BreakerTrips() int64 { return s.g.trips.Load() }

// SafeVector is Safe for vector objectives: an evaluation is quarantined
// when the function panics or when any component is NaN/±Inf, substituting
// a uniform penalty vector of the declared length. It wraps a bounded
// objective fb (see optim.BoundedVectorObjective); a plain one is wrapped
// as a bounded one that ignores its stop predicate.
type SafeVector struct {
	fb func([]float64, func([]float64) bool) []float64
	m  int
	g  *faultGate
}

// NewSafeVector wraps f, whose healthy return has m components.
func NewSafeVector(f func([]float64) []float64, m int, opts *SafeOptions) *SafeVector {
	return NewSafeBoundedVector(func(x []float64, _ func([]float64) bool) []float64 { return f(x) }, m, opts)
}

// NewSafeBoundedVector wraps a bounded vector objective fb, whose healthy
// return has m components. fb may stop once its stop predicate holds for
// its partial vector; because any later fault would turn the result into
// the penalty vector, it must stop only when the predicate also holds for
// that vector.
func NewSafeBoundedVector(fb func(x []float64, exceeds func([]float64) bool) []float64, m int, opts *SafeOptions) *SafeVector {
	return &SafeVector{fb: fb, m: m, g: newGate(opts)}
}

func (s *SafeVector) penaltyVec() []float64 {
	out := make([]float64, s.m)
	for i := range out {
		out[i] = s.g.penalty
	}
	return out
}

// Eval evaluates the wrapped vector objective with quarantine, to the end.
func (s *SafeVector) Eval(x []float64) []float64 { return s.EvalBounded(x, nil) }

// EvalBounded evaluates the wrapped objective with quarantine, handing a
// bounded objective the stop predicate exceeds (a plain one ignores it). A
// stopped vector is returned unchecked and counts as healthy: it is one
// for which exceeds holds together with the penalty vector, so the
// trial loses whatever the work it skipped would have produced. That work
// is never graded, so the breaker does not see a fault in it.
func (s *SafeVector) EvalBounded(x []float64, exceeds func([]float64) bool) (out []float64) {
	defer func() {
		if r := recover(); r != nil {
			s.g.bad(true)
			out = s.penaltyVec()
		}
	}()
	v := s.fb(x, exceeds)
	for _, c := range v {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			pen := s.penaltyVec()
			if exceeds != nil && exceeds(v) && exceeds(pen) {
				break // a stopped vector
			}
			s.g.bad(false)
			return pen
		}
	}
	s.g.good()
	return v
}

// Objective returns the wrapped objective as a plain function, assignable
// to optim.VectorObjective.
func (s *SafeVector) Objective() func([]float64) []float64 { return s.Eval }

// BoundedObjective returns the wrapped objective as a bounded function,
// assignable to optim.BoundedVectorObjective.
func (s *SafeVector) BoundedObjective() func([]float64, func([]float64) bool) []float64 {
	return s.EvalBounded
}

// Panics returns the number of recovered panics.
func (s *SafeVector) Panics() int64 { return s.g.panics.Load() }

// NonFinite returns the number of quarantined non-finite returns.
func (s *SafeVector) NonFinite() int64 { return s.g.nonFinite.Load() }

// BreakerTrips returns the number of circuit-breaker trips.
func (s *SafeVector) BreakerTrips() int64 { return s.g.trips.Load() }

package rfpassive

import (
	"gnsslna/internal/mathx"
	"gnsslna/internal/noise"
	"gnsslna/internal/twoport"
)

// CompiledChain is a Chain lowered to a flat recipe for fast evaluation at
// one frequency at a time. Compilation classifies each element once: the
// lumped chip models, tees and shunt branches all reduce to an elementary
// series-Z or shunt-Y factor per frequency, which NoisyAt and ABCDAt apply
// with the specialized noise.CascadeSeries/CascadeShunt ops instead of the
// generic 2x2 cascade-plus-congruence. Anything else (nested Chains,
// foreign Element implementations) keeps the generic path. A *Shared
// element compiles to its inner element's step and reads that factor from
// the shared per-frequency table, computing it only on a miss.
//
// The compiled result is value-exact (==) against Chain.Noisy at every
// frequency: the elementary ops reproduce the generic arithmetic for finite
// operands (see internal/noise/band.go), and any non-finite intermediate
// falls back to the generic cascade for the rest of the chain. The
// internal/verify differential suite enforces this over the element corpus.
type CompiledChain struct {
	steps []chainStep
}

// stepKind classifies how a compiled step contributes its two-port factor.
type stepKind uint8

const (
	// stepGeneric cascades elem.Noisy(f) with the generic algebra.
	stepGeneric stepKind = iota
	// stepSeries contributes a noisy series impedance z(f) at temp.
	stepSeries
	// stepShunt contributes a noisy shunt admittance y(f) at temp.
	stepShunt
)

type chainStep struct {
	kind stepKind
	// elem is always retained: generic steps evaluate it directly,
	// elementary steps derive their factor from it (zy), and both fall back
	// to it on non-finite operands.
	elem Element
	// temp is the resolved physical temperature in kelvin.
	temp float64
	// cj is a Tee's junction capacitance, frozen at compile time.
	cj float64
	// shared, when set, stores the step's factor per frequency for every
	// chain holding the same *Shared element.
	shared *Shared
}

// CompileChain lowers ch to its compiled form. The Chain itself is not
// retained; re-compile after mutating element parameters.
func CompileChain(ch Chain) *CompiledChain {
	cc := new(CompiledChain)
	cc.Compile(ch)
	return cc
}

// Compile lowers ch into cc, replacing what cc held. It reuses cc's step
// storage, so re-pointing a warm CompiledChain at a chain of no more
// elements allocates nothing.
func (cc *CompiledChain) Compile(ch Chain) {
	cc.steps = cc.steps[:0]
	for _, e := range ch {
		cc.steps = append(cc.steps, compileStep(e))
	}
}

func compileStep(e Element) chainStep {
	switch el := e.(type) {
	case Inductor:
		return lumpedStep(e, el.Orient, el.Temp)
	case Capacitor:
		return lumpedStep(e, el.Orient, el.Temp)
	case Resistor:
		return lumpedStep(e, el.Orient, el.Temp)
	case Tee:
		// Freeze the geometry-only junction capacitance so the band loop
		// skips the Hammerstad fit per point (JunctionCapacitance returns
		// the stored value unchanged, so this is exact).
		return chainStep{kind: stepShunt, elem: e, temp: el.Sub.temp(), cj: el.JunctionCapacitance()}
	case ShuntBranch:
		return chainStep{kind: stepShunt, elem: e, temp: resolveTemp(el.Temp)}
	case *Shared:
		// The inner element's step, reading the shared table first; a
		// generic inner step has no single factor to store.
		st := compileStep(el.Element)
		if st.kind != stepGeneric {
			st.shared = el
		}
		return st
	default:
		return chainStep{kind: stepGeneric, elem: e}
	}
}

func lumpedStep(e Element, o Orientation, temp float64) chainStep {
	if o == Shunt {
		return chainStep{kind: stepShunt, elem: e, temp: resolveTemp(temp)}
	}
	return chainStep{kind: stepSeries, elem: e, temp: resolveTemp(temp)}
}

// zy returns an elementary step's series impedance (stepSeries) or shunt
// admittance (stepShunt) at f, from the shared table when the step has one.
func (st *chainStep) zy(f float64) complex128 {
	if st.shared == nil {
		return st.eval(f)
	}
	if v, ok := st.shared.lookup(f); ok {
		return v
	}
	v := st.eval(f)
	st.shared.store(f, v)
	return v
}

// eval computes the step's factor at f from its element.
func (st *chainStep) eval(f float64) complex128 {
	var z complex128
	switch el := st.elem.(type) {
	case Inductor:
		z = el.Impedance(f)
	case Capacitor:
		z = el.Impedance(f)
	case Resistor:
		z = el.Impedance(f)
	case Tee:
		el.CJunction = st.cj
		return el.TotalShuntY(f)
	case ShuntBranch:
		z = el.Impedance(f)
	}
	if st.kind == stepShunt {
		return 1 / z
	}
	return z
}

func resolveTemp(t float64) float64 {
	if t == 0 {
		return mathx.T0
	}
	return t
}

// NoisyAt returns the cascade as a noisy two-port at f, equal (==) to the
// uncompiled Chain.Noisy(f).
func (cc *CompiledChain) NoisyAt(f float64) noise.TwoPort {
	n := noise.Noiseless(twoport.Identity2())
	for i := range cc.steps {
		st := &cc.steps[i]
		if st.kind == stepGeneric || !n.Finite() {
			n = n.Cascade(st.elem.Noisy(f))
			continue
		}
		v := st.zy(f)
		if !finiteC(v) {
			n = n.Cascade(st.elem.Noisy(f))
			continue
		}
		// The normalization mirrors noise.SeriesZ/ShuntY exactly:
		// real(v)*temp/T0 in this operation order.
		w := real(v) * st.temp / mathx.T0
		if st.kind == stepSeries {
			n = n.CascadeSeries(v, w)
		} else {
			n = n.CascadeShunt(v, w)
		}
	}
	return n
}

// NoisyBand writes the cascade's noisy two-port at each frequency into dst
// (same length as freqs) and returns dst.
func (cc *CompiledChain) NoisyBand(dst []noise.TwoPort, freqs []float64) []noise.TwoPort {
	for i, f := range freqs {
		dst[i] = cc.NoisyAt(f)
	}
	return dst
}

// ABCDAt returns the chain matrix of the cascade at f, equal (==) to the
// uncompiled Chain.ABCD(f). Elementary steps use the specialized
// twoport.MulSeriesZ/MulShuntY products.
func (cc *CompiledChain) ABCDAt(f float64) twoport.Mat2 {
	a := twoport.Identity2()
	for i := range cc.steps {
		st := &cc.steps[i]
		if st.kind == stepGeneric || !finiteMat(a) {
			a = a.Mul(st.elem.ABCD(f))
			continue
		}
		v := st.zy(f)
		if !finiteC(v) {
			a = a.Mul(st.elem.ABCD(f))
			continue
		}
		if st.kind == stepSeries {
			a = twoport.MulSeriesZ(a, v)
		} else {
			a = twoport.MulShuntY(a, v)
		}
	}
	return a
}

// ABCDBand writes the cascade's chain matrix at each frequency into dst.
func (cc *CompiledChain) ABCDBand(dst []twoport.Mat2, freqs []float64) []twoport.Mat2 {
	for i, f := range freqs {
		dst[i] = cc.ABCDAt(f)
	}
	return dst
}

func finiteC(v complex128) bool {
	re, im := real(v), imag(v)
	return re-re == 0 && im-im == 0
}

func finiteMat(m twoport.Mat2) bool {
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if !finiteC(m[i][j]) {
				return false
			}
		}
	}
	return true
}

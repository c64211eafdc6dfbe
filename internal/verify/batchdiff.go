package verify

import (
	"gnsslna/internal/device"
	"gnsslna/internal/rfpassive"
	"gnsslna/internal/twoport"
)

// Differential checks between the band engine's fast paths and the generic
// implementations they replay: the compiled passive chains against the
// generic Chain.Noisy/ABCD (which tee branches and nested chains still use
// through Element), and the device's A-only embedding against the full
// noisy one. Agreement is required under floating-point equality (==) — not
// within a tolerance: the fast ops perform the same scalar arithmetic in
// the same order, so the only representable difference is the sign of a
// zero, which == treats as equal.

// exactMat2 demands a == b elementwise.
func exactMat2(context, name string, a, b twoport.Mat2) []Violation {
	if a == b {
		return nil
	}
	return []Violation{violation("batch-differential", context, twoport.MaxAbsDiff(a, b),
		"%s: batch and per-point %s matrices are not value-identical (max |diff| %.3g)",
		name, name, twoport.MaxAbsDiff(a, b))}
}

// BatchChainEquivalence compiles the chain and demands the compiled noisy
// two-port and chain matrix (NoisyAt, ABCDAt) equal (==) the generic
// Chain.Noisy/ABCD at every frequency.
func BatchChainEquivalence(context string, ch rfpassive.Chain, freqs []float64) []Violation {
	var out []Violation
	cc := rfpassive.CompileChain(ch)
	for i, f := range freqs {
		ref := ch.Noisy(f)
		got := cc.NoisyAt(f)
		ctx := pointContext(context, freqs, i)
		out = append(out, exactMat2(ctx, "A", got.A, ref.A)...)
		out = append(out, exactMat2(ctx, "CA", got.CA, ref.CA)...)
		out = append(out, exactMat2(ctx, "ABCD", cc.ABCDAt(f), ch.ABCD(f))...)
	}
	return out
}

// BatchDeviceEquivalence demands the A-only embedding the stability scan
// uses (EmbedABCD) reproduce the chain matrix of the full noisy embedding
// (Embed) at every frequency of the grid: the two run one immittance
// sequence and differ only in the noise bookkeeping, which must not touch A.
func BatchDeviceEquivalence(context string, dev *device.PHEMT, b device.Bias, freqs []float64) []Violation {
	var out []Violation
	st := dev.BandStateAt(b)
	for i, f := range freqs {
		ctx := pointContext(context, freqs, i)
		abcd, errA := dev.ABCDAtState(st, f)
		ref, errN := dev.NoisyAt(b, f)
		if errA != nil || errN != nil {
			out = append(out, violation("batch-differential", ctx, 0,
				"ABCDAtState error %v, NoisyAt error %v", errA, errN))
			continue
		}
		out = append(out, exactMat2(ctx, "A-only ABCD", abcd, ref.A)...)
	}
	return out
}

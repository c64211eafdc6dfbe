package verify

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"gnsslna/internal/core"
	"gnsslna/internal/device"
	"gnsslna/internal/mathx"
	"gnsslna/internal/noise"
	"gnsslna/internal/optim"
	"gnsslna/internal/rfpassive"
	"gnsslna/internal/twoport"
)

// chainCorpus wraps the element corpus as chains and adds the composite
// kinds the batch compiler special-cases: a loaded T-junction, a shunt R+L
// stabilizer branch and a chain nested in a chain. Every chain also appears
// as a "shared" copy whose elements are each wrapped in rfpassive.Shared,
// the way an amplifier builder shares its bias tees, stabilizer and DC
// blocks.
func chainCorpus() map[string]rfpassive.Chain {
	out := make(map[string]rfpassive.Chain)
	for name, e := range elementCorpus() {
		if ch, ok := e.(rfpassive.Chain); ok {
			out[name] = ch
			continue
		}
		out[name] = rfpassive.Chain{e}
	}
	tee := rfpassive.Tee{
		Sub:     rfpassive.RogersRO4350(),
		WMain:   1.7e-3,
		WBranch: 0.55e-3,
		Branch: rfpassive.Chain{
			rfpassive.NewChipInductor(68e-9, rfpassive.Series),
			rfpassive.NewChipCapacitor(100e-12, rfpassive.Shunt),
		},
		BranchLoad: complex(10e3, 0),
	}
	out["loaded tee"] = rfpassive.Chain{tee}
	out["stabilizer R+L"] = rfpassive.Chain{rfpassive.StabilizerRL(75, 3.9e-9)}
	out["nested chain"] = rfpassive.Chain{inputMatchChain(), rfpassive.NewChipInductor(2.2e-9, rfpassive.Series)}
	for name, ch := range plainChains(out) {
		out[sharedPrefix+name] = sharedCopy(ch)
	}
	return out
}

// sharedPrefix names the Shared-wrapped copies in chainCorpus.
const sharedPrefix = "shared "

// plainChains returns a snapshot of the corpus chains that are not shared
// copies.
func plainChains(corpus map[string]rfpassive.Chain) map[string]rfpassive.Chain {
	out := make(map[string]rfpassive.Chain)
	for name, ch := range corpus {
		if !strings.HasPrefix(name, sharedPrefix) {
			out[name] = ch
		}
	}
	return out
}

// sharedCopy wraps every element of ch in an rfpassive.Shared of its own.
func sharedCopy(ch rfpassive.Chain) rfpassive.Chain {
	out := make(rfpassive.Chain, len(ch))
	for i, e := range ch {
		out[i] = rfpassive.NewShared(e)
	}
	return out
}

// TestBatchChainEquivalence compiles every corpus chain and demands the
// batch path reproduce Chain.Noisy and Chain.ABCD bit-for-bit (==) across
// the full sweep grid. The shared copies run twice, once filling their
// tables and once reading them, on the sweep grid and on a grid longer than
// a table holds.
func TestBatchChainEquivalence(t *testing.T) {
	long := mathx.Logspace(50e6, 20e9, 300)
	var r Report
	for name, ch := range chainCorpus() {
		r.Add(BatchChainEquivalence(name, ch, sweepGrid()))
		if !strings.HasPrefix(name, sharedPrefix) {
			continue
		}
		r.Add(BatchChainEquivalence(name+" (table read)", ch, sweepGrid()))
		for _, pass := range []string{"fill", "read"} {
			r.Add(BatchChainEquivalence(name+" (long grid, "+pass+")", ch, long))
		}
	}
	if !r.OK() {
		t.Error(r.String())
	}
}

// TestSharedChainBitsAtZeroHz compiles each corpus chain plain and as its
// shared copy and demands bit-identical noisy two-ports and chain matrices
// at +0 Hz and -0 Hz, in both orders and twice. Several chains are
// non-finite there (a series capacitor at DC), which == cannot compare, so
// this compares the float64 bit patterns: a table that let the two zeros
// share an entry, or changed a NaN payload, would show here.
func TestSharedChainBitsAtZeroHz(t *testing.T) {
	pz, nz := 0.0, math.Copysign(0, -1)
	corpus := chainCorpus()
	for name, ch := range plainChains(corpus) {
		plain, shared := rfpassive.CompileChain(ch), rfpassive.CompileChain(corpus[sharedPrefix+name])
		for _, f := range []float64{pz, nz, nz, pz} {
			var gotN, wantN noise.TwoPort
			shared.NoisyAt(&gotN, f)
			plain.NoisyAt(&wantN, f)
			if !sameBits(gotN.A, wantN.A) || !sameBits(gotN.CA, wantN.CA) {
				t.Errorf("%s at %v Hz: shared noisy two-port %v, want the bits of %v", name, f, gotN, wantN)
			}
			var got, want twoport.Mat2
			shared.ABCDAt(&got, f)
			plain.ABCDAt(&want, f)
			if !sameBits(got, want) {
				t.Errorf("%s at %v Hz: shared ABCD %v, want the bits of %v", name, f, got, want)
			}
		}
	}
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b twoport.Mat2) bool {
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			x, y := a[i][j], b[i][j]
			if math.Float64bits(real(x)) != math.Float64bits(real(y)) ||
				math.Float64bits(imag(x)) != math.Float64bits(imag(y)) {
				return false
			}
		}
	}
	return true
}

// TestBatchDeviceEquivalence sweeps the golden pHEMT over a bias grid and
// demands the A-only ABCDAtState equal (==) the chain matrix of the noisy
// NoisyAt at every grid frequency.
func TestBatchDeviceEquivalence(t *testing.T) {
	dev := device.Golden()
	var r Report
	for _, vgs := range []float64{0.40, 0.48, 0.56} {
		for _, vds := range []float64{2, 3, 4} {
			b := device.Bias{Vgs: vgs, Vds: vds}
			ctx := fmt.Sprintf("bias (%.2f, %.2f) V", vgs, vds)
			r.Add(BatchDeviceEquivalence(ctx, dev, b, sweepGrid()))
		}
	}
	if !r.OK() {
		t.Error(r.String())
	}
}

// evalsEqual compares two Evaluations field-for-field, including every
// per-point metric, under floating-point equality.
func evalsEqual(a, b core.Evaluation) bool {
	if a.Design != b.Design ||
		a.WorstNFdB != b.WorstNFdB || a.MinGTdB != b.MinGTdB ||
		a.WorstS11dB != b.WorstS11dB || a.WorstS22dB != b.WorstS22dB ||
		a.StabMargin != b.StabMargin ||
		a.IdsA != b.IdsA || a.PdcW != b.PdcW {
		return false
	}
	if len(a.Points) != len(b.Points) {
		return false
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			return false
		}
	}
	return true
}

// memoDesigns draws a deterministic batch of designs from the box, with
// duplicates so a single pass already exercises memo hits.
func memoDesigns() []core.Design {
	lo, hi := core.DesignBounds()
	rng := rand.New(rand.NewSource(4242))
	xs := make([]core.Design, 0, 24)
	for k := 0; k < 16; k++ {
		x := make([]float64, len(lo))
		for i := range x {
			x[i] = lo[i] + rng.Float64()*(hi[i]-lo[i])
		}
		xs = append(xs, core.DesignFromVector(x))
	}
	// Every third design repeats: hits inside the same batch.
	for k := 0; k < 8; k++ {
		xs = append(xs, xs[k*2])
	}
	return xs
}

// TestMemoBitIdentityThroughEvalPool grades the same design batch through
// the EvalPool four ways — memo disabled, cold memo, warm memo (all hits),
// and warm memo at several worker counts — and demands bit-identical
// Evaluations and identical journal eval tallies from all of them. A memo
// hit must be observationally indistinguishable from recomputation.
func TestMemoBitIdentityThroughEvalPool(t *testing.T) {
	xs := memoDesigns()
	newDesigner := func(memo *core.EvalMemo) *core.Designer {
		d := core.NewDesigner(core.NewBuilder(device.Golden()))
		d.Spec.NPoints = 5
		d.Memo = memo
		return d
	}
	grade := func(d *core.Designer, workers int) []core.Evaluation {
		out := make([]core.Evaluation, len(xs))
		optim.NewEvalPool(workers).Each(len(xs), func(i int) {
			ev, err := d.Evaluate(xs[i])
			if err != nil {
				t.Errorf("evaluate %d: %v", i, err)
				return
			}
			out[i] = ev
		})
		return out
	}

	plain := newDesigner(nil)
	ref := grade(plain, 1)
	if got, want := plain.EvalCount(), int64(len(xs)); got != want {
		t.Fatalf("memo-disabled eval tally = %d, want %d", got, want)
	}

	memo := core.NewEvalMemo(256)
	cached := newDesigner(memo)
	cold := grade(cached, 1) // first misses; the dupes reach the doorkeeper's admission
	warm := grade(cached, 1) // admitted designs hit, the rest are admitted now
	if got, want := cached.EvalCount(), int64(2*len(xs)); got != want {
		t.Fatalf("memo-enabled eval tally = %d, want %d (hits must still be charged)", got, want)
	}
	st := memo.Stats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("memo saw hits=%d misses=%d; the batch must exercise both paths", st.Hits, st.Misses)
	}
	for i := range xs {
		if !evalsEqual(ref[i], cold[i]) {
			t.Fatalf("design %d: cold-memo evaluation differs from memo-disabled", i)
		}
		if !evalsEqual(ref[i], warm[i]) {
			t.Fatalf("design %d: warm-memo evaluation differs from memo-disabled", i)
		}
	}

	// Restart simulation: a fresh designer sharing the same memo (new
	// builder, new caches) must reproduce the identical results, as must
	// parallel grading at several worker counts.
	for _, workers := range []int{2, 4, 8} {
		restarted := newDesigner(memo)
		par := grade(restarted, workers)
		for i := range xs {
			if !evalsEqual(ref[i], par[i]) {
				t.Fatalf("workers=%d design %d: parallel memo evaluation differs", workers, i)
			}
		}
		if got, want := restarted.EvalCount(), int64(len(xs)); got != want {
			t.Fatalf("workers=%d eval tally = %d, want %d", workers, got, want)
		}
	}
}

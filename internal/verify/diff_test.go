package verify

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"gnsslna"
	"gnsslna/internal/core"
	"gnsslna/internal/device"
	"gnsslna/internal/optim"
	"gnsslna/internal/touchstone"
	"gnsslna/internal/twoport"
)

func ladderGrid() []float64 {
	return []float64{0.1e9, 0.5e9, 1.575e9, 3e9, 6e9}
}

// ladderCase is one representative ladder of the MNA-vs-cascade corpus.
type ladderCase struct {
	name  string
	elems []LadderElem
	tol   float64
}

// ladderCorpus lists the ladders the differential and golden checks stamp.
func ladderCorpus() []ladderCase {
	return []ladderCase{
		{"series R", []LadderElem{{Series: true, R: 50}}, 1e-9},
		{"pi attenuator", []LadderElem{
			{R: 96}, {Series: true, R: 71}, {R: 96},
		}, 1e-9},
		{"LC lowpass", []LadderElem{
			{Series: true, L: 5.6e-9}, {C: 2.2e-12}, {Series: true, L: 5.6e-9},
		}, 1e-9},
		{"lossy bandpass", []LadderElem{
			{Series: true, R: 0.4, L: 6.8e-9, C: 1.5e-12},
			{R: 1.2e3, L: 12e-9, C: 0.8e-12},
			{Series: true, R: 0.2, C: 8.2e-12},
		}, 1e-9},
		{"shunt-only", []LadderElem{{C: 4.7e-12}, {R: 220}}, 1e-9},
	}
}

// TestDifferentialMNAvsCascade stamps representative ladders into the MNA
// engine and compares the resulting S-parameters against the chain-matrix
// cascade: two independent solvers, one answer.
func TestDifferentialMNAvsCascade(t *testing.T) {
	for _, tc := range ladderCorpus() {
		t.Run(tc.name, func(t *testing.T) {
			ana, err := LadderNetworkAnalytic(tc.elems, ladderGrid(), 50)
			if err != nil {
				t.Fatalf("analytic: %v", err)
			}
			num, err := LadderNetworkMNA(tc.elems, ladderGrid(), 50)
			if err != nil {
				t.Fatalf("mna: %v", err)
			}
			if vs := CompareNetworks(tc.name, ana, num, 1e-12, tc.tol); len(vs) != 0 {
				for _, v := range vs {
					t.Error(v)
				}
			}
			// Both solutions must also be physical: the ladders are passive.
			var r Report
			r.Add(NetworkPhysical(tc.name+" (analytic)", ana, TolPhysical))
			r.Add(NetworkPhysical(tc.name+" (mna)", num, TolPhysical))
			if !r.OK() {
				t.Error(r.String())
			}
		})
	}
}

// TestDifferentialSerialVsParallelEval grades the same seeded batch of
// designs through the EvalPool at several worker counts and demands
// bit-identical objective vectors: parallel evaluation must not perturb the
// optimization trajectory.
func TestDifferentialSerialVsParallelEval(t *testing.T) {
	d := core.NewDesigner(core.NewBuilder(device.Golden()))
	d.Spec.NPoints = 5
	lo, hi := core.DesignBounds()
	rng := rand.New(rand.NewSource(99))
	xs := make([][]float64, 24)
	for k := range xs {
		x := make([]float64, len(lo))
		for i := range x {
			x[i] = lo[i] + rng.Float64()*(hi[i]-lo[i])
		}
		xs[k] = x
	}
	objective := func(x []float64) []float64 {
		ev, err := d.Evaluate(core.DesignFromVector(x))
		if err != nil {
			return []float64{99, 99, 99, 99, 99, 99}
		}
		return ev.Objectives()
	}
	grade := func(workers int) [][]float64 {
		out := make([][]float64, len(xs))
		optim.NewEvalPool(workers).MapVector(objective, xs, out)
		return out
	}
	serial := grade(1)
	for _, workers := range []int{2, 4, 8} {
		par := grade(workers)
		for k := range serial {
			for i := range serial[k] {
				if serial[k][i] != par[k][i] {
					t.Fatalf("workers=%d: objective[%d][%d] = %v, serial %v",
						workers, k, i, par[k][i], serial[k][i])
				}
			}
		}
	}
}

// TestDifferentialCheckpointResume runs the full quick design flow three
// ways — straight through, populating a checkpoint, and resuming from that
// checkpoint — and demands the identical design from all three.
func TestDifferentialCheckpointResume(t *testing.T) {
	if testing.Short() {
		t.Skip("full design flow")
	}
	opts := gnsslna.Options{Seed: 5, Quick: true}
	straight, err := gnsslna.DesignLNA(opts)
	if err != nil {
		t.Fatalf("straight-through: %v", err)
	}
	ck := filepath.Join(t.TempDir(), "design.ckpt")
	opts.Checkpoint = ck
	first, err := gnsslna.DesignLNA(opts)
	if err != nil {
		t.Fatalf("checkpoint-populating run: %v", err)
	}
	resumed, err := gnsslna.DesignLNA(opts)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	for name, r := range map[string]gnsslna.DesignReport{"populating": first, "resumed": resumed} {
		if r.Snapped != straight.Snapped || r.Design != straight.Design {
			t.Errorf("%s run diverged: %+v vs straight %+v", name, r, straight)
		}
		if r.Gamma != straight.Gamma || r.WorstNFdB != straight.WorstNFdB {
			t.Errorf("%s run grades diverged: gamma %v/%v NF %v/%v",
				name, r.Gamma, straight.Gamma, r.WorstNFdB, straight.WorstNFdB)
		}
	}
}

// TestDifferentialTouchstoneRoundTrip writes frequency-sampled networks in
// all three Touchstone formats and reads them back, including the
// zero-magnitude samples that historically encoded as dB(0) = -Inf.
func TestDifferentialTouchstoneRoundTrip(t *testing.T) {
	grid := ladderGrid()
	elems := []LadderElem{
		{Series: true, L: 6.8e-9}, {C: 1.8e-12}, {Series: true, R: 3.3},
	}
	ladder, err := LadderNetworkAnalytic(elems, grid, 50)
	if err != nil {
		t.Fatal(err)
	}
	zero := &twoport.Network{Z0: 50, Freqs: grid, S: make([]twoport.Mat2, len(grid))}
	for i := range zero.S {
		zero.S[i] = twoport.Mat2{{0, complex(1e-12, 0)}, {complex(1e-12, 0), 0}}
	}
	nets := map[string]*twoport.Network{"ladder": ladder, "near-zero": zero}
	for name, n := range nets {
		for _, format := range []touchstone.Format{touchstone.FormatMA, touchstone.FormatDB, touchstone.FormatRI} {
			var buf bytes.Buffer
			if err := touchstone.Write(&buf, n, format, "verify round trip"); err != nil {
				t.Fatalf("%s/%v: write: %v", name, format, err)
			}
			back, err := touchstone.Read(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("%s/%v: read back: %v", name, format, err)
			}
			ctx := fmt.Sprintf("touchstone %s %v", name, format)
			if vs := CompareNetworks(ctx, n, back, 1e-9, 1e-6); len(vs) != 0 {
				for _, v := range vs {
					t.Error(v)
				}
			}
		}
	}
}

// TestDifferentialNetworkAtAgainstDirect spot-checks that Network.At linear
// interpolation reproduces an analytically evaluated ladder mid-grid within
// the local linearization error.
func TestDifferentialNetworkAtAgainstDirect(t *testing.T) {
	elems := []LadderElem{{Series: true, L: 4.7e-9}, {C: 1.2e-12}}
	dense, err := LadderNetworkAnalytic(elems, []float64{1.0e9, 1.05e9}, 50)
	if err != nil {
		t.Fatal(err)
	}
	mid := 1.025e9
	direct, err := LadderNetworkAnalytic(elems, []float64{mid}, 50)
	if err != nil {
		t.Fatal(err)
	}
	if d := twoport.MaxAbsDiff(dense.At(mid), direct.S[0]); d > 1e-3 || math.IsNaN(d) {
		t.Fatalf("interpolated vs direct at %g Hz differ by %g", mid, d)
	}
}

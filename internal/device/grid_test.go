package device

import (
	"math"
	"math/rand"
	"testing"

	"gnsslna/internal/mathx"
)

// gridAxes are the drain-voltage axes of the grid fence: the campaign's
// 11-point axis, a single point, and a longer axis with Vds = 0 of both
// signs, a negative drain voltage and the Statz knee region.
func gridAxes() [][]float64 {
	long := []float64{0, math.Copysign(0, -1), -0.4, 1e-300, 0.05, 0.3}
	long = append(long, mathx.Linspace(0.5, 6, 12)...)
	return [][]float64{mathx.Linspace(0.2, 4, 11), {0}, long}
}

// gridVgs are the fence's gate voltages, from below every threshold the
// bounds allow to well above them, with both zeros.
func gridVgs() []float64 {
	return append(mathx.Linspace(-1.6, 1.8, 18), 0, math.Copysign(0, -1), 0.3, 1e-300)
}

// gridEdgeParams are parameter vectors on the models' branch edges, most
// of them outside Bounds: the Statz and TOM denominator clamps, TOM's
// exponent floor, every case of the Curtice-3 ascending-branch clamp, and
// a NaN parameter.
var gridEdgeParams = map[string][][]float64{
	"Curtice-2": {
		{0.2, 0.3, 0.05, 3},
		{0.2, 0, 0, 3},
		{0.2, 0.3, math.NaN(), 3},
	},
	"Curtice-3": {
		{0.02, 0.1, 0, 0, 0.1, 3, 3},          // A3 = A2 = 0: no clamp
		{0.02, 0.1, 0.3, 0, 0.1, 3, 3},        // A3 = 0, A2 > 0: floor at -A1/(2 A2)
		{0.02, 0.1, -0.3, 0, 0.1, 3, 3},       // A3 = 0, A2 < 0: ceiling at -A1/(2 A2)
		{0.02, 1, 0.1, 0.2, 0.1, 3, 3},        // positive cubic, disc < 0: monotone
		{0.02, 0.75, 0.75, 0.25, 0.1, 3, 3},   // disc = 0 exactly: monotone
		{0.02, -1, 0, 0.5, -0.2, 3, 6},        // A3 > 0, disc > 0: floor at the upper root
		{0.02, 1, 0.2, -0.5, 0.2, 3, 0.5},     // A3 < 0: band between the roots
		{0, 0, 0, 0, 0.2, 3, 6},               // zero polynomial
		{0.02, 0.1, 0.1, math.NaN(), 0, 3, 3}, // NaN A3
	},
	"Statz": {
		{0.25, 0.3, -5, 2.5, 0.05}, // 1 + B v <= 1e-9: denominator clamp
		{0.25, 0.3, -2, 2.5, 0.05}, // clamp for part of the row
		{0.25, -1, 1, 0.5, 0},
		{0.25, 0.3, 1, math.NaN(), 0.05},
	},
	"TOM": {
		{0.15, 0.3, 2, 0.02, -3, 3},    // 1 + Delta Vds Ids0 <= 1e-9: denominator clamp
		{0.15, 0.3, 0.5, 0.02, 0.1, 3}, // Q < 1: exponent floor
		{0.15, 0.3, 2, -0.2, 0.1, 3},   // Gamma Vds pushes rows below threshold
		{0.15, 0.3, 2, 0.02, 0.1, math.NaN()},
	},
	"Angelov": {
		{0.08, 0.5, 2, 0, 0.1, 0.05, 3},
		{0.08, 0.5, 8, 2, 2, 0.5, 10}, // tanh saturates to +-1
		{0.08, 0.5, 2, 0, 0.1, 0.05, math.NaN()},
	},
}

// checkGrid asserts that the model's grid equals Ids bit for bit on every
// axis and gate voltage of the fence.
func checkGrid(t *testing.T, m DCModel, label string) {
	t.Helper()
	for _, vds := range gridAxes() {
		cols := make([]float64, GridColFactors*len(vds))
		row := make([]float64, len(vds))
		m.GridCols(vds, cols)
		for _, vgs := range gridVgs() {
			for j := range row {
				row[j] = 12345 // stale scratch must be overwritten
			}
			m.GridRow(vgs, cols, row)
			for j, v := range vds {
				if want := m.Ids(vgs, v); math.Float64bits(row[j]) != math.Float64bits(want) {
					t.Fatalf("%s %v: grid(%v, %v) = %v (%#x), Ids = %v (%#x)", label, m.Params(),
						vgs, v, row[j], math.Float64bits(row[j]), want, math.Float64bits(want))
				}
			}
		}
	}
}

// TestGridMatchesIdsBitwise is the fence of the per-axis grid kernels: for
// every model, at 1000 seeded parameter vectors inside Bounds and at the
// branch-edge vectors, every grid value equals Ids bit for bit.
func TestGridMatchesIdsBitwise(t *testing.T) {
	for _, m := range AllModels() {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			edges := gridEdgeParams[m.Name()]
			if len(edges) == 0 {
				t.Fatalf("no branch-edge parameters for %s", m.Name())
			}
			for k, p := range edges {
				if err := m.SetParams(p); err != nil {
					t.Fatal(err)
				}
				checkGrid(t, m, "edge "+string(rune('a'+k)))
			}
			lo, hi := m.Bounds()
			rng := rand.New(rand.NewSource(int64(len(m.Name())) * 7919))
			p := make([]float64, len(lo))
			for k := 0; k < 1000; k++ {
				for i := range p {
					p[i] = lo[i] + rng.Float64()*(hi[i]-lo[i])
				}
				if err := m.SetParams(p); err != nil {
					t.Fatal(err)
				}
				checkGrid(t, m, "random")
			}
		})
	}
}

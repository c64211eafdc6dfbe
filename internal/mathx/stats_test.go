package mathx

import (
	"math"
	"testing"
)

func TestMeanStdDevRMS(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); !Close(got, 5, 1e-12) {
		t.Errorf("Mean = %g, want 5", got)
	}
	if got := RMS([]float64{3, 4}); !Close(got, math.Sqrt(12.5), 1e-12) {
		t.Errorf("RMS = %g", got)
	}
	if Mean(nil) != 0 || RMS(nil) != 0 {
		t.Error("empty-slice statistics should be 0")
	}
}

func TestMedianPercentile(t *testing.T) {
	xs := []float64{1, 3, 2, 5, 4}
	if got := Median(xs); !Close(got, 3, 1e-12) {
		t.Errorf("Median = %g, want 3", got)
	}
	if got := Percentile(xs, 0); got != 1 {
		t.Errorf("P0 = %g, want 1", got)
	}
	if got := Percentile(xs, 100); got != 5 {
		t.Errorf("P100 = %g, want 5", got)
	}
	if got := Percentile(xs, 25); !Close(got, 2, 1e-12) {
		t.Errorf("P25 = %g, want 2", got)
	}
}

func TestRankPercentile(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		sorted  []float64
		q, want float64
	}{
		{nil, 0.5, 0},
		{ten, 0, 1},
		{ten, 0.10, 1},
		{ten, 0.5, 5},
		{ten, 0.95, 10},
		{ten, 0.99, 10},
		{ten, 1, 10},
		{[]float64{3}, 0, 3},
		{[]float64{3}, 0.5, 3},
		{[]float64{3}, 1, 3},
	} {
		if got := RankPercentile(tc.sorted, tc.q); got != tc.want {
			t.Errorf("RankPercentile(%v, %g) = %g, want %g", tc.sorted, tc.q, got, tc.want)
		}
	}
}

func TestMinMaxClamp(t *testing.T) {
	min, max := MinMax([]float64{3, -1, 7, 0})
	if min != -1 || max != 7 {
		t.Errorf("MinMax = (%g,%g), want (-1,7)", min, max)
	}
	if Clamp(5, 0, 3) != 3 || Clamp(-5, 0, 3) != 0 || Clamp(2, 0, 3) != 2 {
		t.Error("Clamp misbehaves")
	}
}

func TestLinspaceLogspace(t *testing.T) {
	ls := Linspace(1, 2, 5)
	want := []float64{1, 1.25, 1.5, 1.75, 2}
	for i := range want {
		if !Close(ls[i], want[i], 1e-12) {
			t.Errorf("Linspace[%d] = %g, want %g", i, ls[i], want[i])
		}
	}
	lg := Logspace(1, 1000, 4)
	wantLg := []float64{1, 10, 100, 1000}
	for i := range wantLg {
		if !CloseRel(lg[i], wantLg[i], 1e-12) {
			t.Errorf("Logspace[%d] = %g, want %g", i, lg[i], wantLg[i])
		}
	}
}

func TestDBHelpers(t *testing.T) {
	if !Close(DB10(100), 20, 1e-12) || !Close(DB20(10), 20, 1e-12) {
		t.Error("DB conversion wrong")
	}
	if !Close(FromDB10(30), 1000, 1e-9) || !Close(FromDB20(6.0205999), 2, 1e-6) {
		t.Error("FromDB conversion wrong")
	}
	if !Close(WattsToDBm(0.001), 0, 1e-12) {
		t.Error("1 mW must be 0 dBm")
	}
	if !Close(NFToTemp(2), 290, 1e-9) {
		t.Error("noise temperature conversion wrong")
	}
}

package core

import (
	"math"
	"testing"
)

// TestSweepsBitIdenticalAcrossWorkers pins the determinism contract of the
// parallel sensitivity / yield sweeps: the serial result and the
// fanned-out result are bit-identical because all randomness and all
// aggregation stay on the driving goroutine.
func TestSweepsBitIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep parity skipped in -short mode")
	}
	serial := fastDesigner()
	serial.Spec.NPoints = 5
	parallel := fastDesigner()
	parallel.Spec.NPoints = 5
	parallel.Workers = 4

	ss, err := serial.Sensitivity(referenceDesign, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := parallel.Sensitivity(referenceDesign, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ss {
		if ss[i].Param != ps[i].Param ||
			!bitsEqual(ss[i].DeltaNFdB, ps[i].DeltaNFdB) ||
			!bitsEqual(ss[i].DeltaGTdB, ps[i].DeltaGTdB) {
			t.Fatalf("sensitivity entry %d differs across workers: %+v vs %+v", i, ss[i], ps[i])
		}
	}

	sy, err := serial.Yield(referenceDesign, 0.05, 40, 9)
	if err != nil {
		t.Fatal(err)
	}
	py, err := parallel.Yield(referenceDesign, 0.05, 40, 9)
	if err != nil {
		t.Fatal(err)
	}
	if sy.Trials != py.Trials ||
		!bitsEqual(sy.PassRate, py.PassRate) ||
		!bitsEqual(sy.NF95dB, py.NF95dB) ||
		!bitsEqual(sy.GT5dB, py.GT5dB) {
		t.Fatalf("yield report differs across workers: %+v vs %+v", py, sy)
	}
}

func bitsEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

package rfpassive

import "testing"

func TestOpenEndExtensionPlausible(t *testing.T) {
	// The textbook rule of thumb: dL between ~0.3h and ~0.6h for common
	// geometries.
	for _, sub := range []Substrate{FR4(), RogersRO4350()} {
		w, err := sub.WidthForZ0(50)
		if err != nil {
			t.Fatal(err)
		}
		dl := sub.OpenEndExtension(w)
		if dl < 0.2*sub.H || dl > 0.8*sub.H {
			t.Errorf("er=%g: dL = %.3g h, want 0.2-0.8 h", sub.Er, dl/sub.H)
		}
	}
}

func TestOpenEndExtensionGrowsWithWidth(t *testing.T) {
	sub := RogersRO4350()
	w50, _ := sub.WidthForZ0(50)
	w30, _ := sub.WidthForZ0(30) // wider
	if sub.OpenEndExtension(w30) <= sub.OpenEndExtension(w50) {
		t.Error("wider line should have larger open-end extension")
	}
}

func TestOpenStubWithEndShortens(t *testing.T) {
	sub := RogersRO4350()
	w, _ := sub.WidthForZ0(50)
	target := 10e-3
	stub := OpenStubWithEnd(sub, w, target)
	if stub.Len >= target {
		t.Errorf("corrected stub %g not shorter than target %g", stub.Len, target)
	}
	if stub.Len <= 0 {
		t.Errorf("corrected stub collapsed to %g", stub.Len)
	}
	// Pathological short target clamps to zero rather than negative.
	tiny := OpenStubWithEnd(sub, w, 1e-6)
	if tiny.Len != 0 {
		t.Errorf("tiny stub length = %g, want 0", tiny.Len)
	}
}

package twoport

import "testing"

func TestNewNetworkValidation(t *testing.T) {
	s := []Mat2{{}, {}}
	if _, err := NewNetwork(50, []float64{1e9, 2e9}, s); err != nil {
		t.Errorf("valid network rejected: %v", err)
	}
	if _, err := NewNetwork(50, []float64{2e9, 1e9}, s); err == nil {
		t.Error("decreasing frequencies accepted")
	}
	if _, err := NewNetwork(50, []float64{1e9}, s); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := NewNetwork(-1, []float64{1e9, 2e9}, s); err == nil {
		t.Error("negative Z0 accepted")
	}
	if _, err := NewNetwork(50, nil, nil); err == nil {
		t.Error("empty network accepted")
	}
}

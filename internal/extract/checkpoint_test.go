package extract

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"

	"gnsslna/internal/device"
)

// deviceLeaves calls visit with the path and value of every exported
// float64 and string reachable from v through structs, pointers and
// interfaces: the device's name, numbers and DC parameters. Unexported
// fields are caches, not state, and are skipped; any other exported kind
// is a field the checkpoint form would have to learn about.
func deviceLeaves(t *testing.T, v reflect.Value, path string, visit func(path string, leaf reflect.Value)) {
	t.Helper()
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			deviceLeaves(t, v.Elem(), path, visit)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() {
				deviceLeaves(t, v.Field(i), path+"."+f.Name, visit)
			}
		}
	case reflect.Float64, reflect.String:
		visit(path, v)
	default:
		t.Fatalf("%s: unhandled kind %s", path, v.Kind())
	}
}

// leafValues renders every leaf of dev as path=value, floats by their bits.
func leafValues(t *testing.T, dev *device.PHEMT) []string {
	var out []string
	deviceLeaves(t, reflect.ValueOf(dev), "PHEMT", func(path string, leaf reflect.Value) {
		if leaf.Kind() == reflect.Float64 {
			out = append(out, fmt.Sprintf("%s=%#x", path, math.Float64bits(leaf.Float())))
		} else {
			out = append(out, fmt.Sprintf("%s=%q", path, leaf.String()))
		}
	})
	return out
}

// TestCheckpointKeepsEveryDeviceField perturbs, one at a time, each
// exported number and string reachable from a device of every DC model
// class, and round-trips a Result holding it through MarshalJSON and
// UnmarshalJSON: every leaf, the perturbed one included, must come back
// unchanged. A field added to PHEMT, its parts or a DC model and left out
// of the checkpoint form fails here.
func TestCheckpointKeepsEveryDeviceField(t *testing.T) {
	for m := range device.AllModels() {
		fresh := func() *device.PHEMT {
			dev := device.Golden()
			dev.DC = device.AllModels()[m]
			return dev
		}
		n := len(leafValues(t, fresh()))
		for k := 0; k < n; k++ {
			dev := fresh()
			var perturbed string
			i := 0
			deviceLeaves(t, reflect.ValueOf(dev), "PHEMT", func(path string, leaf reflect.Value) {
				if i == k {
					perturbed = path
					if leaf.Kind() == reflect.Float64 {
						x := leaf.Float()
						leaf.SetFloat(x + 1 + math.Abs(x))
					} else {
						leaf.SetString(leaf.String() + "-perturbed")
					}
				}
				i++
			})
			raw, err := json.Marshal(Result{Device: dev})
			if err != nil {
				t.Fatal(err)
			}
			var back Result
			if err := json.Unmarshal(raw, &back); err != nil {
				t.Fatalf("%s: %v", perturbed, err)
			}
			if back.Device == nil {
				t.Fatalf("%s: the device did not come back", perturbed)
			}
			want, got := leafValues(t, dev), leafValues(t, back.Device)
			if len(got) != len(want) {
				t.Fatalf("%s: %d leaves came back, want %d", perturbed, len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Errorf("%s perturbed: %s came back as %s", perturbed, want[j], got[j])
				}
			}
		}
	}
}

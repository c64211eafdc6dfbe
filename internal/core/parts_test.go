package core

import (
	"reflect"
	"testing"

	"gnsslna/internal/device"
	"gnsslna/internal/rfpassive"
)

// sameEvaluation compares two Evaluations field for field, every point
// included, under floating-point equality.
func sameEvaluation(a, b Evaluation) bool {
	if len(a.Points) != len(b.Points) {
		return false
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			return false
		}
	}
	a.Points, b.Points = nil, nil
	return reflect.DeepEqual(a, b)
}

// TestPartsMemoKeyCoversEveryField makes the parts memo's key complete by
// construction: for every field of Builder and of its Substrate, it warms
// a builder's memo, changes that one field on the same builder, and
// demands the evaluation equal (==) that of a fresh builder with the same
// change. A field missing from the key would leave the warmed builder on
// stale bias tees, stabilizer or DC blocks. The memo field itself is the
// only exemption.
func TestPartsMemoKeyCoversEveryField(t *testing.T) {
	variant, err := device.GoldenVariant(7)
	if err != nil {
		t.Fatal(err)
	}
	evaluate := func(b *Builder) (Evaluation, error) {
		d := NewDesigner(b)
		d.Memo = nil
		return d.Evaluate(referenceDesign)
	}
	perturb := func(path string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Float64:
			if v.Float() == 0 {
				v.SetFloat(1)
			} else {
				v.SetFloat(v.Float() * 1.25)
			}
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.Pointer:
			if v.Type() != reflect.TypeOf(variant) {
				t.Fatalf("%s: no perturbation for %s", path, v.Type())
			}
			v.Set(reflect.ValueOf(variant))
		default:
			t.Fatalf("%s: field kind %s has no perturbation", path, v.Kind())
		}
	}
	check := func(path string, field func(b *Builder) reflect.Value) {
		warm := NewBuilder(device.Golden())
		if _, err := warm.Build(referenceDesign); err != nil {
			t.Fatal(err)
		}
		fresh := NewBuilder(device.Golden())
		perturb(path, field(warm))
		perturb(path, field(fresh))
		got, gotErr := evaluate(warm)
		want, wantErr := evaluate(fresh)
		switch {
		case gotErr != nil || wantErr != nil:
			if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
				t.Errorf("%s changed on a warmed builder: error %v, fresh builder %v", path, gotErr, wantErr)
			}
		case !sameEvaluation(got, want):
			t.Errorf("%s changed on a warmed builder: evaluation differs from a fresh builder's (stale parts)", path)
		}
	}

	bt := reflect.TypeOf(Builder{})
	for i := 0; i < bt.NumField(); i++ {
		f := bt.Field(i)
		path := "Builder." + f.Name
		switch {
		case f.Name == "geom":
			continue
		case !f.IsExported():
			t.Errorf("%s is unexported and not the parts memo", path)
		case f.Type == reflect.TypeOf(rfpassive.Substrate{}):
			for j := 0; j < f.Type.NumField(); j++ {
				check(path+"."+f.Type.Field(j).Name, func(b *Builder) reflect.Value {
					return reflect.ValueOf(b).Elem().Field(i).Field(j)
				})
			}
		default:
			check(path, func(b *Builder) reflect.Value { return reflect.ValueOf(b).Elem().Field(i) })
		}
	}
}

// TestBuildSharesInvariantParts checks that amplifiers of different designs
// from one builder, and from a copy of it, hold the same shared bias tees,
// stabilizer and DC block (one block for both ports), that copies built
// alternately keep their parts, and that a changed setting gets parts of
// its own.
func TestBuildSharesInvariantParts(t *testing.T) {
	b := NewBuilder(device.Golden())
	other := referenceDesign
	other.Vgs, other.LIn, other.COut = 0.52, 3.3e-9, 0.8e-12
	a1, err := b.Build(referenceDesign)
	if err != nil {
		t.Fatal(err)
	}
	cp := *b
	a2, err := cp.Build(other)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []struct {
		name string
		x, y rfpassive.Element
	}{
		{"input DC block", a1.Input[0], a2.Input[0]},
		{"gate bias tee", a1.Input[2], a2.Input[2]},
		{"stabilizer", a1.Output[0], a2.Output[0]},
		{"drain bias tee", a1.Output[1], a2.Output[1]},
		{"output DC block", a1.Output[4], a2.Output[4]},
		{"DC block of both ports", a1.Input[0], a2.Output[4]},
	} {
		if _, ok := p.x.(*rfpassive.Shared); !ok {
			t.Errorf("%s is a %T, want *rfpassive.Shared", p.name, p.x)
		}
		if p.x != p.y {
			t.Errorf("%s: the two amplifiers hold different parts", p.name)
		}
	}

	// Copies that differ in one setting, built alternately the way E6 and
	// E7 do, each keep their own parts instead of rebuilding them.
	ideal := *b
	ideal.IdealPassives = true
	i1, err := ideal.Build(referenceDesign)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Build(referenceDesign); err != nil {
		t.Fatal(err)
	}
	i2, err := ideal.Build(referenceDesign)
	if err != nil {
		t.Fatal(err)
	}
	if i1.Input[2] != i2.Input[2] {
		t.Error("alternating between two builder settings rebuilt the parts")
	}

	b.Sub.Temp++
	a3, err := b.Build(referenceDesign)
	if err != nil {
		t.Fatal(err)
	}
	if a3.Output[0] == a1.Output[0] {
		t.Error("a changed substrate temperature reused the old stabilizer")
	}
}

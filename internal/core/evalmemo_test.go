package core

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"gnsslna/internal/device"
)

// negZero is -0.0 spelled so the compiler cannot fold it to +0.0.
var negZero = math.Copysign(0, -1)

// TestKeyHashNegativeZeroCanonical pins the hashing contract the shard maps
// rely on: memoKey comparison uses Go's ==, which treats -0.0 and +0.0 as
// equal, so keyHash must agree for every design field. Before the
// canonicalization this failed — math.Float64bits(-0.0) differs from
// math.Float64bits(0) — splitting equal keys across shards.
func TestKeyHashNegativeZeroCanonical(t *testing.T) {
	fields := []func(*Design, float64){
		func(d *Design, v float64) { d.Vgs = v },
		func(d *Design, v float64) { d.Vds = v },
		func(d *Design, v float64) { d.LIn = v },
		func(d *Design, v float64) { d.LDegen = v },
		func(d *Design, v float64) { d.LOut = v },
		func(d *Design, v float64) { d.COut = v },
	}
	base := Design{Vgs: 0.4, Vds: 2, LIn: 5e-9, LDegen: 0.5e-9, LOut: 3e-9, COut: 1e-12}
	for i, set := range fields {
		pos, neg := base, base
		set(&pos, 0)
		set(&neg, negZero)
		if pos != neg {
			t.Fatalf("field %d: fixture broken, designs compare unequal", i)
		}
		kp := memoKey{ctx: 0x9e3779b97f4a7c15, design: pos}
		kn := memoKey{ctx: 0x9e3779b97f4a7c15, design: neg}
		if keyHash(kp) != keyHash(kn) {
			t.Errorf("field %d: keyHash splits +0.0/-0.0 twins: %#x vs %#x",
				i, keyHash(kp), keyHash(kn))
		}
	}
}

// TestEvalMemoNegativeZeroSharesEntry is the behavioral regression: a
// design with a -0.0 field (reachable when an optimizer bound touches zero)
// must share one shard entry with its +0.0-equal twin — stored once, hit by
// both spellings.
func TestEvalMemoNegativeZeroSharesEntry(t *testing.T) {
	m := NewEvalMemo(64)
	pos := Design{Vgs: 0.4, Vds: 2, LIn: 0, LDegen: 0.5e-9, LOut: 3e-9, COut: 1e-12}
	neg := pos
	neg.LIn = negZero
	ctx := uint64(12345)
	kp := memoKey{ctx: ctx, design: pos}
	kn := memoKey{ctx: ctx, design: neg}

	// Two stores pass the doorkeeper (admitted on the second sighting).
	ev := Evaluation{Design: pos, WorstNFdB: 0.5}
	m.store(kp, ev)
	m.store(kp, ev)
	if got, ok := m.lookup(kp); !ok || got.WorstNFdB != 0.5 {
		t.Fatalf("+0.0 key not admitted: ok=%v", ok)
	}
	if _, ok := m.lookup(kn); !ok {
		t.Fatalf("-0.0 twin misses the entry its +0.0 spelling stored")
	}
	// Storing the -0.0 spelling must not duplicate the entry.
	m.store(kn, ev)
	m.store(kn, ev)
	if st := m.Stats(); st.Size != 1 {
		t.Fatalf("memo holds %d entries for one logical key, want 1", st.Size)
	}
}

// TestSweepGridsPublicCopyDoesNotAlias pins the Designer grid contract: the
// exported SweepGrids returns caller-owned copies, so mutating them (as a
// campaign cell goroutine legitimately might) cannot corrupt the memoized
// grids that concurrent Evaluate calls read. Run under -race this also
// proves the internal path stays read-only while copies are scribbled on.
func TestSweepGridsPublicCopyDoesNotAlias(t *testing.T) {
	d := NewDesigner(NewBuilder(device.Golden()))
	d.Spec.NPoints = 5
	d.Memo = nil // exercise the full evaluation path every time

	ref, err := d.Evaluate(referenceDesign)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				pts, stab := d.SweepGrids()
				for j := range pts {
					pts[j] = -1 // scribble on the copy
				}
				for j := range stab {
					stab[j] = -1
				}
				ev, err := d.Evaluate(referenceDesign)
				if err != nil {
					t.Errorf("Evaluate: %v", err)
					return
				}
				if ev.WorstNFdB != ref.WorstNFdB || ev.MinGTdB != ref.MinGTdB ||
					ev.StabMargin != ref.StabMargin {
					t.Errorf("evaluation drifted after SweepGrids mutation: %+v vs %+v", ev, ref)
					return
				}
			}
		}()
	}
	wg.Wait()

	pts, stab := d.SweepGrids()
	if len(pts) != 5 || pts[0] != d.Spec.FLow || pts[len(pts)-1] != d.Spec.FHigh {
		t.Fatalf("band grid corrupted: %v", pts)
	}
	for _, f := range stab {
		if f <= 0 {
			t.Fatalf("stability grid corrupted: %v", stab)
		}
	}
}

// memoCacheFields lists the unexported fields hashCtx may ignore: memoized
// derivations of the hashed inputs, never inputs themselves.
var memoCacheFields = map[string]bool{
	"Builder.geom": true,
}

// TestHashCtxCoversEveryField makes the hand-written context digest
// complete by construction: it walks every field of Spec, Builder (with its
// Substrate), the device (with its capacitance, extrinsic, noise and DC
// models) and perturbs one at a time — every perturbation must move the
// digest, or a changed input would be served a stale memoized evaluation.
// A new field fails here until hashCtx covers it; only the unexported
// caches listed in memoCacheFields are exempt.
func TestHashCtxCoversEveryField(t *testing.T) {
	fresh := func() *Designer { return NewDesigner(NewBuilder(device.Golden())) }
	digest := func(d *Designer) uint64 {
		ctx, ok := d.snapshotCtx()
		if !ok {
			t.Fatal("designer has no evaluation context")
		}
		return hashCtx(ctx)
	}
	base := digest(fresh())
	perturb := func(name string, mutate func(d *Designer)) {
		d := fresh()
		mutate(d)
		if digest(d) == base {
			t.Errorf("hashCtx ignores %s", name)
		}
	}

	// visit perturbs every leaf reachable from the value at(d) selects.
	var visit func(path string, at func(d *Designer) reflect.Value)
	visit = func(path string, at func(d *Designer) reflect.Value) {
		v := at(fresh())
		switch v.Kind() {
		case reflect.Pointer, reflect.Interface:
			visit(path, func(d *Designer) reflect.Value { return at(d).Elem() })
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				f := v.Type().Field(i)
				name := path + "." + f.Name
				if !f.IsExported() {
					if !memoCacheFields[name] {
						t.Errorf("%s is unexported and not a listed cache field", name)
					}
					continue
				}
				visit(name, func(d *Designer) reflect.Value { return at(d).Field(i) })
			}
		case reflect.Float64:
			perturb(path, func(d *Designer) { f := at(d); f.SetFloat(f.Float()*1.5 + 1) })
		case reflect.Int:
			perturb(path, func(d *Designer) { f := at(d); f.SetInt(f.Int() + 1) })
		case reflect.Bool:
			perturb(path, func(d *Designer) { f := at(d); f.SetBool(!f.Bool()) })
		case reflect.String:
			perturb(path, func(d *Designer) { f := at(d); f.SetString(f.String() + "'") })
		default:
			t.Errorf("%s: field kind %s has no perturbation", path, v.Kind())
		}
	}
	visit("Spec", func(d *Designer) reflect.Value { return reflect.ValueOf(&d.Spec).Elem() })
	visit("Builder", func(d *Designer) reflect.Value { return reflect.ValueOf(d.Builder).Elem() })
	perturb("Designer.Z0", func(d *Designer) { d.Z0 = 75 })

	// The DC model sits behind an interface: its parameter vector and its
	// type must reach the digest too.
	for i := range device.Golden().DC.Params() {
		perturb(fmt.Sprintf("Builder.Dev.DC.Params()[%d]", i), func(d *Designer) {
			p := d.Builder.Dev.DC.Params()
			p[i] = p[i]*1.5 + 1
			if err := d.Builder.Dev.DC.SetParams(p); err != nil {
				t.Fatal(err)
			}
		})
	}
	perturb("Builder.Dev.DC type", func(d *Designer) {
		m := device.NewCurticeCubic()
		if err := m.SetParams(d.Builder.Dev.DC.Params()); err != nil {
			t.Fatal(err)
		}
		d.Builder.Dev.DC = m
	})
}

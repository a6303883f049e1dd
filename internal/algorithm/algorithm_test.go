package algorithm_test

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"torusx/internal/algorithm"
	"torusx/internal/exec"
	"torusx/internal/oracle"
	"torusx/internal/topology"
)

func TestForAndNames(t *testing.T) {
	names := algorithm.Names()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Names() not sorted: %v", names)
	}
	want := []string{"allgather", "broadcast", "dimexchange", "direct", "factored", "logtime", "proposed", "proposed-sim", "reducescatter", "ring", "swing"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	for _, name := range names {
		b, err := algorithm.For(name)
		if err != nil {
			t.Fatal(err)
		}
		if b.Name() != name {
			t.Fatalf("For(%q).Name() = %q", name, b.Name())
		}
	}
	if _, err := algorithm.For("bogus"); err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Fatalf("For(bogus) = %v", err)
	}
}

func TestEveryBuilderChecksAndExecutes(t *testing.T) {
	// The acceptance bar of the universal-IR refactor, now per fabric:
	// every registered algorithm supporting a fabric emits a schedule
	// that passes oracle.Check and runs through the shared executor.
	// 8x8 satisfies every torus builder's preconditions (multiple-of-four
	// for proposed, power-of-two for logtime and swing); D3(2,3) covers
	// both dragonfly builders.
	fabrics := []topology.Fabric{
		topology.MustNew(8, 8),
		topology.MustNewDragonfly(2, 3),
	}
	for _, f := range fabrics {
		names := algorithm.Supporting(f)
		if len(names) == 0 {
			t.Fatalf("no algorithms support %s", f.Fingerprint())
		}
		for _, name := range names {
			b, err := algorithm.For(name)
			if err != nil {
				t.Fatal(err)
			}
			if !b.Supports(f) {
				t.Fatalf("%s listed for %s but Supports is false", name, f.Fingerprint())
			}
			sc, err := b.BuildSchedule(f)
			if err != nil {
				t.Fatalf("%s on %s: BuildSchedule: %v", name, f.Fingerprint(), err)
			}
			if err := oracle.Check(sc); err != nil {
				t.Fatalf("%s on %s: Check: %v", name, f.Fingerprint(), err)
			}
			res, err := exec.Run(sc, exec.Options{})
			if err != nil {
				t.Fatalf("%s on %s: exec: %v", name, f.Fingerprint(), err)
			}
			if res.Measure.Steps == 0 {
				t.Fatalf("%s on %s: empty measure", name, f.Fingerprint())
			}
			if sc.HasPayload() && !res.Replayed {
				t.Fatalf("%s on %s: payload schedule was not replayed", name, f.Fingerprint())
			}
		}
	}
}

func TestUnsupportedFabricErrors(t *testing.T) {
	// A fabric-mismatched build fails cleanly, and Supports agrees.
	dd := topology.MustNewDragonfly(2, 2)
	tor := topology.MustNew(4, 4)
	for name, f := range map[string]topology.Fabric{
		"ring":        dd,  // torus-only on a dragonfly
		"swing":       dd,  // torus-only on a dragonfly
		"dimexchange": tor, // dragonfly-only on a torus
	} {
		b, err := algorithm.For(name)
		if err != nil {
			t.Fatal(err)
		}
		if b.Supports(f) {
			t.Errorf("%s claims to support %s", name, f.Fingerprint())
		}
		if _, err := b.BuildSchedule(f); err == nil || !strings.Contains(err.Error(), "does not support") {
			t.Errorf("%s on %s: err = %v", name, f.Fingerprint(), err)
		}
	}
}

func TestStructuralAndSimulatedProposedAgree(t *testing.T) {
	// The structural generator and the dense payload builder must lower
	// to schedules the executor prices identically — the parity that
	// keeps torusx.Compare(Proposed, ...) stable across backends.
	for _, dims := range [][]int{{8, 8}, {12, 8}, {4, 4, 4}} {
		tor := topology.MustNew(dims...)
		var measures []interface{}
		for _, name := range []string{"proposed", "proposed-sim"} {
			b, err := algorithm.For(name)
			if err != nil {
				t.Fatal(err)
			}
			sc, err := b.BuildSchedule(tor)
			if err != nil {
				t.Fatal(err)
			}
			res, err := exec.Run(sc, exec.Options{})
			if err != nil {
				t.Fatalf("%v %s: %v", dims, name, err)
			}
			measures = append(measures, res.Measure)
		}
		if measures[0] != measures[1] {
			t.Fatalf("%v: structural %+v != payload %+v", dims, measures[0], measures[1])
		}
	}
}

func TestBuilderPreconditionErrors(t *testing.T) {
	// Precondition failures surface as build errors, not panics.
	for _, tc := range []struct {
		name string
		dims []int
	}{
		{"proposed", []int{10, 10}},
		{"proposed-sim", []int{10, 10}},
		{"logtime", []int{12, 8}},
	} {
		b, err := algorithm.For(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.BuildSchedule(topology.MustNew(tc.dims...)); err == nil {
			t.Fatalf("%s on %v should fail", tc.name, tc.dims)
		}
	}
}

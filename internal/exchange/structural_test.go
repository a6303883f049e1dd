package exchange

import (
	"testing"

	"torusx/internal/costmodel"
	"torusx/internal/oracle"
	"torusx/internal/schedule"
	"torusx/internal/topology"
)

func TestStructuralValidation(t *testing.T) {
	if _, err := schedule.Collect(topology.MustNew(16), EmitStructural); err == nil {
		t.Fatal("1D should be rejected")
	}
	if _, err := schedule.Collect(topology.MustNew(10, 8), EmitStructural); err == nil {
		t.Fatal("non-multiple-of-four should be rejected")
	}
}

// transferKey normalizes a transfer for set comparison.
type transferKey struct {
	src, dst topology.NodeID
	dim      int
	dir      topology.Direction
	hops     int
	blocks   int
}

func stepSet(s *schedule.Step) map[transferKey]int {
	set := make(map[transferKey]int, len(s.Transfers))
	for _, tr := range s.Transfers {
		set[transferKey{tr.Src, tr.Dst, tr.Dim, tr.Dir, tr.Hops, tr.Blocks}]++
	}
	return set
}

func TestStructuralMatchesSimulated(t *testing.T) {
	for _, dims := range shapes2to5D {
		sim := cachedRun(t, dims).Schedule
		str, err := schedule.Collect(topology.MustNew(dims...), EmitStructural)
		if err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
		if len(sim.Phases) != len(str.Phases) {
			t.Fatalf("%v: %d vs %d phases", dims, len(sim.Phases), len(str.Phases))
		}
		for pi := range sim.Phases {
			sp, tp := &sim.Phases[pi], &str.Phases[pi]
			if sp.Name != tp.Name || len(sp.Steps) != len(tp.Steps) {
				t.Fatalf("%v: phase %d mismatch (%s/%d vs %s/%d)",
					dims, pi, sp.Name, len(sp.Steps), tp.Name, len(tp.Steps))
			}
			for si := range sp.Steps {
				simSet := stepSet(&sp.Steps[si])
				strSet := stepSet(&tp.Steps[si])
				if len(simSet) != len(strSet) {
					t.Fatalf("%v: %s step %d: %d vs %d distinct transfers",
						dims, sp.Name, si+1, len(simSet), len(strSet))
				}
				for k, cnt := range simSet {
					if strSet[k] != cnt {
						t.Fatalf("%v: %s step %d: transfer %+v count %d vs %d",
							dims, sp.Name, si+1, k, cnt, strSet[k])
					}
				}
			}
		}
	}
}

func TestStructuralCostsMatchClosedForm(t *testing.T) {
	for _, dims := range [][]int{{12, 12}, {16, 8}, {8, 8, 8}, {8, 8, 4, 4}} {
		sc, err := schedule.Collect(topology.MustNew(dims...), EmitStructural)
		if err != nil {
			t.Fatal(err)
		}
		cf := costmodel.ProposedND(dims)
		if sc.NumSteps() != cf.Steps {
			t.Fatalf("%v: steps %d, want %d", dims, sc.NumSteps(), cf.Steps)
		}
		if sc.SumMaxBlocks() != cf.Blocks {
			t.Fatalf("%v: blocks %d, want %d", dims, sc.SumMaxBlocks(), cf.Blocks)
		}
		if sc.SumMaxHops() != cf.Hops {
			t.Fatalf("%v: hops %d, want %d", dims, sc.SumMaxHops(), cf.Hops)
		}
	}
}

func TestStructuralRandomShapesProperty(t *testing.T) {
	// Randomized shapes: 2-5 dimensions drawn from {4,8,12,16,20},
	// sorted non-increasing. Every generated schedule must be
	// contention-free, one-port compliant, and match the closed forms.
	sizes := []int{4, 8, 12, 16, 20}
	rng := func(seed *uint64) uint64 {
		*seed ^= *seed << 13
		*seed ^= *seed >> 7
		*seed ^= *seed << 17
		return *seed
	}
	seed := uint64(0x9E3779B97F4A7C15)
	for trial := 0; trial < 25; trial++ {
		n := 2 + int(rng(&seed)%4)
		dims := make([]int, n)
		for i := range dims {
			dims[i] = sizes[rng(&seed)%uint64(len(sizes))]
		}
		// Sort non-increasing.
		for i := 1; i < n; i++ {
			for j := i; j > 0 && dims[j] > dims[j-1]; j-- {
				dims[j], dims[j-1] = dims[j-1], dims[j]
			}
		}
		// Cap node count to keep the check fast.
		nodes := 1
		for _, d := range dims {
			nodes *= d
		}
		if nodes > 20000 {
			continue
		}
		sc, err := schedule.Collect(topology.MustNew(dims...), EmitStructural)
		if err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
		if err := oracle.Check(sc); err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
		cf := costmodel.ProposedND(dims)
		if sc.NumSteps() != cf.Steps || sc.SumMaxBlocks() != cf.Blocks || sc.SumMaxHops() != cf.Hops {
			t.Fatalf("%v: schedule costs %d/%d/%d, closed form %+v",
				dims, sc.NumSteps(), sc.SumMaxBlocks(), sc.SumMaxHops(), cf)
		}
	}
}

// TestStructuralContentionFreeAtScale: on shapes far beyond what the
// block-level simulator can hold, contention-freedom and the one-port
// model are verified on every step. The 32x32x16, 16^4, 8^5 and 100x96
// rows run under -tags bigshapes.
func TestStructuralContentionFreeAtScale(t *testing.T) {
	shapes := [][]int{
		{64, 64},           // 4096 nodes, would be 16.7M blocks
		{4, 4, 4, 4, 4, 4}, // 4096 nodes, 6D
		{8, 8, 4, 4, 4, 4}, // 16384 nodes, 6D mixed
	}
	if testing.Short() {
		shapes = shapes[:2]
	}
	for _, dims := range append(shapes, bigStructuralShapes...) {
		sc, err := schedule.Collect(topology.MustNew(dims...), EmitStructural)
		if err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
		if err := oracle.Check(sc); err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
	}
}

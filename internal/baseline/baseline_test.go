package baseline

import (
	"testing"

	"torusx/internal/costmodel"
	"torusx/internal/exec"
	"torusx/internal/oracle"
	"torusx/internal/schedule"
	"torusx/internal/topology"
)

var shapes = [][]int{{4, 4}, {8, 8}, {12, 8}, {6, 5}, {4, 4, 4}, {5, 3, 2}}

// execute compiles and replays a built schedule once through the shared
// executor, then checks independently that every node ends with
// exactly the blocks addressed to it. It takes a builder's results
// as they come: execute(schedule.Collect(tor, EmitFactored)).
func execute(sc *schedule.Schedule, err error) (*exec.Result, error) {
	if err != nil {
		return nil, err
	}
	res, err := exec.Run(sc, exec.Options{})
	if err != nil {
		return nil, err
	}
	return res, oracle.Delivered(sc.Fabric, res.Buffers)
}

func TestDirectDelivers(t *testing.T) {
	for _, dims := range shapes {
		if _, err := execute(schedule.Collect(topology.MustNew(dims...), EmitDirect)); err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
	}
}

func TestDirectMeasure(t *testing.T) {
	tor := topology.MustNew(8, 8)
	res, err := execute(schedule.Collect(tor, EmitDirect))
	if err != nil {
		t.Fatal(err)
	}
	if res.Measure.Steps != 63 {
		t.Fatalf("steps = %d, want 63", res.Measure.Steps)
	}
	// Every step sends single blocks (MaxBlocks = 1), but the
	// simultaneous worms of an id-shift overlap on the ring links, so
	// the executor charges each step its link-sharing serialization
	// factor. The per-step factor equals oracle.SharingFactor; their sum
	// is the closed form for Blocks. (Before the shared executor this
	// contention was not modelled and Blocks was the step count, 63.)
	wantBlocks := 0
	sc, err := schedule.Collect(tor, EmitDirect)
	if err != nil {
		t.Fatal(err)
	}
	sc.EachStep(func(_ *schedule.Phase, _ int, st *schedule.Step) {
		wantBlocks += st.MaxBlocks() * oracle.SharingFactor(tor, st)
	})
	if res.Measure.Blocks != wantBlocks {
		t.Fatalf("blocks = %d, want sum of sharing factors %d", res.Measure.Blocks, wantBlocks)
	}
	// Documented regression value for 8x8 (see EXPERIMENTS.md).
	if res.Measure.Blocks != 184 {
		t.Fatalf("blocks = %d, want 184", res.Measure.Blocks)
	}
	if res.Measure.Blocks <= res.Measure.Steps {
		t.Fatal("wormhole link sharing should make Blocks exceed the step count")
	}
	if res.Measure.Hops <= 0 {
		t.Fatal("hops should be positive")
	}
	// No shift exceeds the torus diameter (4+4) per step.
	if res.Measure.Hops > 63*8 {
		t.Fatalf("hops = %d exceeds diameter bound", res.Measure.Hops)
	}
	if res.Measure.RearrangedBlocks != 0 {
		t.Fatal("direct performs no rearrangement")
	}
}

func TestRingDelivers(t *testing.T) {
	for _, dims := range shapes {
		if _, err := execute(schedule.Collect(topology.MustNew(dims...), EmitRing)); err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
	}
}

func TestRingMeasureMatchesClosedForm(t *testing.T) {
	for _, dims := range shapes {
		res, err := execute(schedule.Collect(topology.MustNew(dims...), EmitRing))
		if err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
		want := RingClosedForm(dims)
		if res.Measure.Steps != want.Steps || res.Measure.Blocks != want.Blocks || res.Measure.Hops != want.Hops {
			t.Fatalf("%v: measured %+v, closed form %+v", dims, res.Measure, want)
		}
	}
}

func TestRingVsProposedShape(t *testing.T) {
	// On a square multiple-of-four torus, Ring needs ~4x the startups
	// of the proposed algorithm and strictly more transmitted volume.
	dims := []int{16, 16}
	ring := RingClosedForm(dims)
	prop := costmodel.ProposedND(dims)
	// Ratio is 2(C-1) vs C/2+2, approaching 4x as C grows (3.0x at C=16).
	if ring.Steps < 3*prop.Steps {
		t.Fatalf("ring startups %d should be ~3-4x proposed %d", ring.Steps, prop.Steps)
	}
	if ring.Blocks <= prop.Blocks {
		t.Fatalf("ring volume %d should exceed proposed %d", ring.Blocks, prop.Blocks)
	}
}

func TestSerializedGroupsAblation(t *testing.T) {
	dims := []int{16, 16}
	ser := SerializedGroups(dims)
	prop := costmodel.ProposedND(dims)
	groupSteps := 2 * (16/4 - 1)
	if ser.Steps != prop.Steps+3*groupSteps {
		t.Fatalf("serialized steps = %d, want %d", ser.Steps, prop.Steps+3*groupSteps)
	}
	if ser.Blocks != prop.Blocks || ser.Hops != prop.Hops {
		t.Fatal("ablation should only change startups")
	}
}

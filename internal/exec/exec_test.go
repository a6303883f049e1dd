package exec_test

import (
	"fmt"
	"strings"
	"testing"

	"torusx/internal/baseline"
	"torusx/internal/block"
	"torusx/internal/collective"
	"torusx/internal/costmodel"
	"torusx/internal/exchange"
	"torusx/internal/exec"
	"torusx/internal/schedule"
	"torusx/internal/topology"
	"torusx/internal/traffic"
)

// TestFullTraffic: a nil Options.Traffic is the full all-to-all matrix.
// A program compiled against the explicit matrix delivers exactly what
// the default program delivers, at the same cost, and only the default
// records full traffic instead of listing it.
// mustCollect collects emit's schedule on tor, panicking on an error:
// the tests call it only with the direct and ring exchanges, which
// build on every shape.
func mustCollect(tor *topology.Torus, emit func(*topology.Torus, schedule.Sink) error) *schedule.Schedule {
	sc, err := schedule.Collect(tor, emit)
	if err != nil {
		panic(err)
	}
	return sc
}

func TestFullTraffic(t *testing.T) {
	tor := topology.MustNew(4, 4)
	sc := mustCollect(tor, baseline.EmitRing)
	full := traffic.Full(tor.Nodes()).Blocks()
	implicit, err := exec.Compile(sc, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := exec.Compile(sc, exec.Options{Traffic: full})
	if err != nil {
		t.Fatal(err)
	}
	if implicit.Measure() != explicit.Measure() || implicit.BytesMoved() != explicit.BytesMoved() {
		t.Fatalf("implicit %+v moved %d, explicit %+v moved %d",
			implicit.Measure(), implicit.BytesMoved(), explicit.Measure(), explicit.BytesMoved())
	}
	var got [2][]int32
	for i, pg := range []*exec.Program{implicit, explicit} {
		got[i] = make([]int32, pg.DeliverySize())
		if err := pg.ReplayInto(pg.NewArena(), got[i], exec.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	sameIDs(t, "explicit full traffic", got[0], got[1])
	if len(got[0]) != len(full) {
		t.Fatalf("delivered %d blocks, want %d", len(got[0]), len(full))
	}
	a, err := exec.EncodeProgram(implicit, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := exec.EncodeProgram(explicit, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) >= len(b) {
		t.Fatalf("implicit file %d bytes, explicit %d: the full matrix was listed", len(a), len(b))
	}
}

func TestRunRejectsNilSchedule(t *testing.T) {
	if _, err := exec.Run(nil, exec.Options{}); err == nil {
		t.Fatal("nil schedule should fail")
	}
	if _, err := exec.Run(&schedule.Schedule{}, exec.Options{}); err == nil {
		t.Fatal("schedule without torus should fail")
	}
}

func TestRunStructuralProposed(t *testing.T) {
	// The structural proposed schedule carries no payloads: the executor
	// checks and measures it without replay, and the measure matches the
	// paper's closed form.
	sc, err := schedule.Collect(topology.MustNew(8, 8), exchange.EmitStructural)
	if err != nil {
		t.Fatal(err)
	}
	res, err := exec.Run(sc, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Replayed || res.Buffers != nil {
		t.Fatal("structural schedule should not be replayed")
	}
	if res.MaxSharing != 1 {
		t.Fatalf("proposed is contention-free, MaxSharing = %d", res.MaxSharing)
	}
	if want := costmodel.ProposedND([]int{8, 8}); res.Measure != want {
		t.Fatalf("measure %+v != closed form %+v", res.Measure, want)
	}
}

// TestRunMeasureOnlyLargeFabric: a measure-only schedule holds no
// n²-sized table, so Compile and Run accept fabrics of any size the
// schedule builders do — here 16,384 nodes, past the block-id space a
// program decoder reconstructs.
func TestRunMeasureOnlyLargeFabric(t *testing.T) {
	tor := topology.MustNew(32, 32, 16)
	bcast, err := schedule.Collect(tor, func(t *topology.Torus, s schedule.Sink) error {
		return collective.EmitBroadcast(t, 0, s)
	})
	if err != nil {
		t.Fatal(err)
	}
	structural, err := schedule.Collect(tor, exchange.EmitStructural)
	if err != nil {
		t.Fatal(err)
	}
	for name, sc := range map[string]*schedule.Schedule{"broadcast": bcast, "structural": structural} {
		res, err := exec.Run(sc, exec.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Replayed || res.Measure.Steps != sc.NumSteps() {
			t.Fatalf("%s: replayed %v, %d steps measured, schedule has %d", name, res.Replayed, res.Measure.Steps, sc.NumSteps())
		}
	}
	if got, want := structural.NumSteps(), costmodel.ProposedND([]int{32, 32, 16}).Steps; got != want {
		t.Fatalf("structural: %d steps, closed form %d", got, want)
	}
}

func TestRunReplaysPayloadSchedules(t *testing.T) {
	// Payload-annotated builders are replayed block by block and
	// delivery-verified against the full all-to-all matrix.
	tor := topology.MustNew(4, 4)
	for _, tc := range []struct {
		name    string
		sc      *schedule.Schedule
		sharing bool // whether link sharing is expected
	}{
		{"direct", mustCollect(tor, baseline.EmitDirect), true},
		{"ring", mustCollect(tor, baseline.EmitRing), false},
	} {
		res, err := exec.Run(tc.sc, exec.Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !res.Replayed || len(res.Buffers) != tor.Nodes() {
			t.Fatalf("%s: payload schedule should be replayed", tc.name)
		}
		if res.Schedule != tc.sc {
			t.Fatalf("%s: Run reports schedule %p, not the one it was given", tc.name, res.Schedule)
		}
		if tc.sharing && res.MaxSharing <= 1 {
			t.Fatalf("%s: expected link sharing, MaxSharing = %d", tc.name, res.MaxSharing)
		}
		if !tc.sharing && res.MaxSharing != 1 {
			t.Fatalf("%s: contention-free schedule has MaxSharing = %d", tc.name, res.MaxSharing)
		}
		for id, buf := range res.Buffers {
			if buf.Len() != tor.Nodes() {
				t.Fatalf("%s: node %d holds %d blocks after exchange", tc.name, id, buf.Len())
			}
		}
	}
}

// twoWormStep builds a single-step schedule on tor where the worms of
// src1->+2 and src2->+2 along dim 0 overlap on one link.
func twoWormStep(tor *topology.Torus, shared bool) *schedule.Schedule {
	mk := func(src topology.NodeID) schedule.Transfer {
		return schedule.Transfer{
			Src: src, Dst: tor.MoveID(src, 0, 2),
			Dim: 0, Dir: topology.Pos, Hops: 2, Blocks: 1,
		}
	}
	return &schedule.Schedule{
		Fabric: tor,
		Phases: []schedule.Phase{{
			Name: "contended",
			Steps: []schedule.Step{{
				Shared:    shared,
				Transfers: []schedule.Transfer{mk(0), mk(tor.MoveID(0, 0, 1))},
			}},
		}},
	}
}

func TestRunContentionPolicy(t *testing.T) {
	tor := topology.MustNew(4, 4)
	// Undeclared link sharing is a hard error...
	if _, err := exec.Run(twoWormStep(tor, false), exec.Options{}); err == nil {
		t.Fatal("overlapping worms without Shared should be rejected")
	}
	// ...while a declared Shared step passes and is priced by its
	// serialization factor: two worms on one link double the step's
	// transmission charge.
	res, err := exec.Run(twoWormStep(tor, true), exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxSharing != 2 {
		t.Fatalf("MaxSharing = %d, want 2", res.MaxSharing)
	}
	if res.Measure.Blocks != 2 {
		t.Fatalf("Blocks = %d, want MaxBlocks x sharing = 2", res.Measure.Blocks)
	}
	// One-port violations are rejected even on Shared steps.
	bad := twoWormStep(tor, true)
	bad.Phases[0].Steps[0].Transfers[1].Src = 0
	if _, err := exec.Run(bad, exec.Options{}); err == nil {
		t.Fatal("double send should violate the one-port model")
	}
}

// singleHop builds a one-transfer payload schedule moving pay from node
// 0 to its +1 neighbour along dim 0.
func singleHop(tor *topology.Torus, declared int, pay []block.Block) *schedule.Schedule {
	return &schedule.Schedule{
		Fabric: tor,
		Phases: []schedule.Phase{{
			Name: "hop",
			Steps: []schedule.Step{{
				Transfers: []schedule.Transfer{{
					Src: 0, Dst: tor.MoveID(0, 0, 1),
					Dim: 0, Dir: topology.Pos, Hops: 1,
					Blocks: declared, Payload: block.IDs(pay, tor.Nodes()),
				}},
			}},
		}},
	}
}

func TestRunReplayErrors(t *testing.T) {
	tor := topology.MustNew(4, 4)
	dst := tor.MoveID(0, 0, 1)
	traffic := []block.Block{{Origin: 0, Dest: dst}}

	// Declared block count must match the attached payload.
	sc := singleHop(tor, 2, []block.Block{{Origin: 0, Dest: dst}})
	if _, err := exec.Run(sc, exec.Options{Traffic: traffic}); err == nil ||
		!strings.Contains(err.Error(), "payload") {
		t.Fatalf("payload/Blocks mismatch should fail, got %v", err)
	}
	// A node may only transmit blocks it holds.
	sc = singleHop(tor, 1, []block.Block{{Origin: 3, Dest: dst}})
	if _, err := exec.Run(sc, exec.Options{Traffic: traffic}); err == nil ||
		!strings.Contains(err.Error(), "does not hold") {
		t.Fatalf("transmitting an unheld block should fail, got %v", err)
	}
	// A payload id must name a block: ids below 0 or at n² and beyond
	// are rejected, and the error names the id.
	for _, id := range []int32{-1, int32(tor.Nodes() * tor.Nodes())} {
		sc = singleHop(tor, 1, []block.Block{{Origin: 0, Dest: dst}})
		sc.Phases[0].Steps[0].Transfers[0].Payload[0] = id
		if _, err := exec.Run(sc, exec.Options{Traffic: traffic}); err == nil ||
			!strings.Contains(err.Error(), fmt.Sprintf("payload id %d outside", id)) {
			t.Fatalf("payload id %d should fail naming the id, got %v", id, err)
		}
	}
	// Delivery is verified against the declared matrix: a schedule that
	// moves nothing cannot satisfy non-self traffic.
	empty := &schedule.Schedule{Fabric: tor, Phases: []schedule.Phase{{Name: "idle", Steps: []schedule.Step{{}}}}}
	empty.Phases[0].Steps[0].Transfers = []schedule.Transfer{}
	sc = singleHop(tor, 1, []block.Block{{Origin: 0, Dest: dst}})
	two := []block.Block{{Origin: 0, Dest: dst}, {Origin: 0, Dest: tor.MoveID(0, 0, 2)}}
	if _, err := exec.Run(sc, exec.Options{Traffic: two}); err == nil {
		t.Fatal("undelivered traffic should fail verification")
	}
	// Malformed traffic matrices are rejected up front.
	if _, err := exec.Run(sc, exec.Options{Traffic: []block.Block{{Origin: 99, Dest: 0}}}); err == nil {
		t.Fatal("out-of-range traffic should fail")
	}
	dup := []block.Block{{Origin: 0, Dest: dst}, {Origin: 0, Dest: dst}}
	if _, err := exec.Run(sc, exec.Options{Traffic: dup}); err == nil {
		t.Fatal("duplicate traffic should fail")
	}
}

func TestRunSparseTraffic(t *testing.T) {
	// A custom traffic matrix replaces the full all-to-all default.
	tor := topology.MustNew(4, 4)
	dst := tor.MoveID(0, 0, 1)
	sc := singleHop(tor, 1, []block.Block{{Origin: 0, Dest: dst}})
	res, err := exec.Run(sc, exec.Options{Traffic: []block.Block{{Origin: 0, Dest: dst}}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Replayed {
		t.Fatal("sparse run should be replayed")
	}
	if res.Buffers[dst].Len() != 1 || res.Buffers[0].Len() != 0 {
		t.Fatal("block did not move to its destination")
	}
	if res.Measure.Steps != 1 || res.Measure.Blocks != 1 || res.Measure.Hops != 1 {
		t.Fatalf("measure = %+v", res.Measure)
	}
}

package wormhole

import (
	"strings"
	"testing"

	"torusx/internal/oracle"
	"torusx/internal/topology"
)

func path(t *topology.Torus, src topology.Coord, dim int, dir topology.Direction, hops int) []topology.Link {
	return t.PathLinks(src, dim, dir, hops)
}

func TestSingleMessageLatency(t *testing.T) {
	tor := topology.MustNew(16)
	for _, tc := range []struct{ hops, flits int }{
		{1, 1}, {4, 1}, {1, 10}, {4, 64}, {8, 3},
	} {
		msgs := []Message{{ID: 0, Path: path(tor, topology.Coord{0}, 0, topology.Pos, tc.hops), Flits: tc.flits}}
		st, err := Simulate(msgs, 10000)
		if err != nil {
			t.Fatal(err)
		}
		if want := tc.hops + tc.flits; st.Cycles != want {
			t.Fatalf("h=%d L=%d: %d cycles, want %d", tc.hops, tc.flits, st.Cycles, want)
		}
		if st.HeaderStalls != 0 {
			t.Fatalf("single message stalled %d cycles", st.HeaderStalls)
		}
	}
}

func TestDisjointMessagesPipelinePerfectly(t *testing.T) {
	tor := topology.MustNew(16)
	msgs := []Message{
		{ID: 0, Path: path(tor, topology.Coord{0}, 0, topology.Pos, 4), Flits: 32},
		{ID: 1, Path: path(tor, topology.Coord{4}, 0, topology.Pos, 4), Flits: 32},
		{ID: 2, Path: path(tor, topology.Coord{8}, 0, topology.Pos, 4), Flits: 32},
		{ID: 3, Path: path(tor, topology.Coord{12}, 0, topology.Pos, 4), Flits: 32},
	}
	st, err := Simulate(msgs, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycles != 36 {
		t.Fatalf("%d cycles, want 36", st.Cycles)
	}
	for i, c := range st.Completion {
		if c != 36 {
			t.Fatalf("message %d completed at %d, want 36", i, c)
		}
	}
}

func TestSharedLinkSerializes(t *testing.T) {
	tor := topology.MustNew(16)
	// Message 1's path shares links 1->2, 2->3 with message 0.
	msgs := []Message{
		{ID: 0, Path: path(tor, topology.Coord{0}, 0, topology.Pos, 4), Flits: 32},
		{ID: 1, Path: path(tor, topology.Coord{1}, 0, topology.Pos, 2), Flits: 32},
	}
	st, err := Simulate(msgs, 10000)
	if err != nil {
		t.Fatal(err)
	}
	// Both inject in cycle 1; message 1 starts on the shared link
	// 1->2 and so acquires it first, finishing unimpeded at 2+32.
	// Message 0's header stalls on 1->2 until message 1's tail clears
	// it, serializing the pair.
	if st.Completion[1] != 34 {
		t.Fatalf("message 1 completed at %d, want 34", st.Completion[1])
	}
	if st.Completion[0] <= 36 {
		t.Fatalf("message 0 completed at %d, should be serialized past 36", st.Completion[0])
	}
	if st.HeaderStalls == 0 {
		t.Fatal("expected header stalls")
	}
}

func TestDeadlockDetected(t *testing.T) {
	tor := topology.MustNew(4, 4)
	l01 := path(tor, topology.Coord{0, 0}, 1, topology.Pos, 1) // (0,0)->(0,1)
	l10 := path(tor, topology.Coord{0, 1}, 1, topology.Neg, 1) // (0,1)->(0,0)
	// Two messages each needing the other's first link as its second:
	// cyclic wait, classic wormhole deadlock.
	msgs := []Message{
		{ID: 0, Path: append(append([]topology.Link{}, l01...), l10...), Flits: 8},
		{ID: 1, Path: append(append([]topology.Link{}, l10...), l01...), Flits: 8},
	}
	st, err := Simulate(msgs, 200)
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("want deadlock error, got %v", err)
	}
	// The cyclic wait is a fixed point from the cycle both headers
	// block, so it is reported then rather than at the cycle cap.
	if st.Cycles >= 10 {
		t.Fatalf("deadlock reported after %d cycles, want it once both headers block", st.Cycles)
	}
}

func TestInputValidation(t *testing.T) {
	if _, err := Simulate([]Message{{ID: 0, Flits: 1}}, 10); err == nil {
		t.Fatal("empty path should fail")
	}
	tor := topology.MustNew(8)
	if _, err := Simulate([]Message{{ID: 0, Path: path(tor, topology.Coord{0}, 0, topology.Pos, 1), Flits: 0}}, 10); err == nil {
		t.Fatal("zero flits should fail")
	}
}

func TestProposedStepIsContentionFreeAtFlitLevel(t *testing.T) {
	// Every step of the proposed schedule must complete in exactly
	// hops + flits cycles for every message — the flit-level proof of
	// the paper's contention-freedom claim.
	res, err := oracle.Run(topology.MustNew(12, 8), oracle.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const flitsPerBlock = 4
	for _, ph := range res.Schedule.Phases {
		for si, stp := range ph.Steps {
			msgs := FromStep(res.Torus, &stp, flitsPerBlock)
			if len(msgs) == 0 {
				continue
			}
			st, err := Simulate(msgs, 1_000_000)
			if err != nil {
				t.Fatalf("%s step %d: %v", ph.Name, si+1, err)
			}
			if st.HeaderStalls != 0 {
				t.Fatalf("%s step %d: %d header stalls in a contention-free step",
					ph.Name, si+1, st.HeaderStalls)
			}
			for i, c := range st.Completion {
				want := len(msgs[i].Path) + msgs[i].Flits
				if c != want {
					t.Fatalf("%s step %d message %d: completed at %d, want %d",
						ph.Name, si+1, i, c, want)
				}
			}
		}
	}
}

func TestNaiveDirectionsSerializeOrDeadlock(t *testing.T) {
	// The A1 ablation measured at flit level: without the (r+c) mod 4
	// direction split, all four residue classes of a line would send
	// +dim0 simultaneously.
	tor := topology.MustNew(16)
	const flits = 1 + 24*4

	// Proposed-style: only stride-4-aligned senders share the ring;
	// their worms tile it and the step is perfectly pipelined.
	var good []Message
	for i := 0; i < 16; i += 4 {
		good = append(good, Message{ID: i, Path: path(tor, topology.Coord{i}, 0, topology.Pos, 4), Flits: flits})
	}
	gs, err := Simulate(good, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if gs.Cycles != 4+flits {
		t.Fatalf("good step: %d cycles, want %d", gs.Cycles, 4+flits)
	}

	// Naive, four adjacent senders on a line segment: acyclic link
	// conflicts, so the step completes but serializes roughly 4x.
	var segment []Message
	for i := 0; i < 4; i++ {
		segment = append(segment, Message{ID: i, Path: path(tor, topology.Coord{i}, 0, topology.Pos, 4), Flits: flits})
	}
	ss, err := Simulate(segment, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if ss.Cycles < 3*gs.Cycles {
		t.Fatalf("adjacent senders should serialize ~4x: %d vs %d", ss.Cycles, gs.Cycles)
	}

	// Naive, the whole ring at once: the worms form a cyclic wait and
	// the step deadlocks outright — wormhole rings deadlock without
	// virtual channels, so the naive schedule is not merely slow, it
	// is incorrect.
	var ring []Message
	for i := 0; i < 16; i++ {
		ring = append(ring, Message{ID: i, Path: path(tor, topology.Coord{i}, 0, topology.Pos, 4), Flits: flits})
	}
	if _, err := Simulate(ring, 100_000); err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("full-ring naive step should deadlock, got %v", err)
	}
}

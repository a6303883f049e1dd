package wormhole

import (
	"testing"

	"torusx/internal/exchange"
	"torusx/internal/oracle"
	"torusx/internal/schedule"
	"torusx/internal/topology"
)

func TestSimulateVCMatchesSimulateForSingleWorm(t *testing.T) {
	tor := topology.MustNew(16)
	for _, tc := range []struct{ hops, flits int }{{1, 1}, {4, 16}, {8, 3}} {
		base := Message{ID: 0, Path: path(tor, topology.Coord{0}, 0, topology.Pos, tc.hops), Flits: tc.flits}
		plain, err := Simulate([]Message{base}, 10000)
		if err != nil {
			t.Fatal(err)
		}
		vc, err := SimulateVC([]VCMessage{{Message: base}}, 2, 10000)
		if err != nil {
			t.Fatal(err)
		}
		if plain.Cycles != vc.Cycles {
			t.Fatalf("h=%d L=%d: plain %d vs vc %d cycles", tc.hops, tc.flits, plain.Cycles, vc.Cycles)
		}
	}
}

func TestSimulateVCValidation(t *testing.T) {
	tor := topology.MustNew(8)
	m := Message{ID: 0, Path: path(tor, topology.Coord{0}, 0, topology.Pos, 2), Flits: 4}
	if _, err := SimulateVC([]VCMessage{{Message: m}}, 0, 10); err == nil {
		t.Fatal("0 VCs should fail")
	}
	if _, err := SimulateVC([]VCMessage{{Message: m, VC: []int{0}}}, 2, 10); err == nil {
		t.Fatal("VC length mismatch should fail")
	}
	if _, err := SimulateVC([]VCMessage{{Message: m, VC: []int{0, 5}}}, 2, 10); err == nil {
		t.Fatal("VC out of range should fail")
	}
	if _, err := SimulateVC([]VCMessage{{Message: Message{ID: 0, Path: m.Path, Flits: 0}}}, 2, 10); err == nil {
		t.Fatal("0 flits should fail")
	}
}

func TestVCsShareWireBandwidth(t *testing.T) {
	tor := topology.MustNew(16)
	// Two worms over the same physical links on different VCs: no
	// header deadlock, but they share the wire, so the pair takes
	// roughly twice as long as one alone.
	p := path(tor, topology.Coord{0}, 0, topology.Pos, 4)
	const flits = 64
	msgs := []VCMessage{
		{Message: Message{ID: 0, Path: p, Flits: flits}, VC: []int{0, 0, 0, 0}},
		{Message: Message{ID: 1, Path: p, Flits: flits}, VC: []int{1, 1, 1, 1}},
	}
	st, err := SimulateVC(msgs, 2, 100000)
	if err != nil {
		t.Fatal(err)
	}
	solo := 4 + flits
	if st.Cycles < 2*flits {
		t.Fatalf("shared wire should ~double time: %d vs solo %d", st.Cycles, solo)
	}
	if st.Cycles > 3*solo {
		t.Fatalf("interleaving too slow: %d", st.Cycles)
	}
}

func TestDatelineVCAssignment(t *testing.T) {
	tor := topology.MustNew(8)
	// Path from node 6 going +4: links from 6,7,0,1. The link leaving
	// 7 crosses the dateline, so hops 1.. get VC 1.
	p := path(tor, topology.Coord{6}, 0, topology.Pos, 4)
	vcs := DatelineVCs(tor, p)
	want := []int{0, 1, 1, 1}
	for i := range want {
		if vcs[i] != want[i] {
			t.Fatalf("vcs = %v, want %v", vcs, want)
		}
	}
	// A path not crossing the dateline stays on VC 0.
	p0 := path(tor, topology.Coord{0}, 0, topology.Pos, 4)
	for _, v := range DatelineVCs(tor, p0) {
		if v != 0 {
			t.Fatalf("non-wrapping path assigned VC 1: %v", DatelineVCs(tor, p0))
		}
	}
	// Negative direction: leaving coordinate 0 crosses.
	pn := path(tor, topology.Coord{1}, 0, topology.Neg, 4)
	vn := DatelineVCs(tor, pn)
	if vn[0] != 0 || vn[1] != 1 || vn[2] != 1 {
		t.Fatalf("neg dateline: %v", vn)
	}
}

func TestDatelineResolvesRingDeadlock(t *testing.T) {
	// The full-ring naive pattern deadlocks on one VC
	// (TestNaiveDirectionsSerializeOrDeadlock); with the two-VC
	// dateline scheme it completes — the T3D-style fix.
	tor := topology.MustNew(16)
	const flits = 1 + 24*4
	var plain []Message
	var vcd []VCMessage
	for i := 0; i < 16; i++ {
		m := Message{ID: i, Path: path(tor, topology.Coord{i}, 0, topology.Pos, 4), Flits: flits}
		plain = append(plain, m)
		vcd = append(vcd, VCMessage{Message: m, VC: DatelineVCs(tor, m.Path)})
	}
	if _, err := Simulate(plain, 100000); err == nil {
		t.Fatal("single-VC ring should deadlock")
	}
	st, err := SimulateVC(vcd, 2, 1_000_000)
	if err != nil {
		t.Fatalf("dateline scheme should complete: %v", err)
	}
	if st.Cycles <= 4+flits {
		t.Fatalf("contended ring cannot match solo latency: %d", st.Cycles)
	}
}

func TestNaiveScheduleEndToEndPenalty(t *testing.T) {
	// The complete A1 ablation at flit level: the naive (no direction
	// split) schedule, run step by step with dateline VCs so its ring
	// contention does not deadlock, takes several times the cycles of
	// the proposed schedule despite moving identical volumes.
	tor := topology.MustNew(12, 12)
	prop, err := schedule.Collect(tor, exchange.EmitStructural)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := oracle.GenerateNaive(tor)
	if err != nil {
		t.Fatal(err)
	}
	const fpb = 2
	propCycles, propStalls, err := SimulateScheduleVC(tor, prop, fpb, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	naiveCycles, naiveStalls, err := SimulateScheduleVC(tor, naive, fpb, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if propStalls != 0 {
		t.Fatalf("proposed schedule stalled %d cycles", propStalls)
	}
	if naiveStalls == 0 {
		t.Fatal("naive schedule should stall")
	}
	if naiveCycles < 2*propCycles {
		t.Fatalf("naive %d cycles should be >= 2x proposed %d", naiveCycles, propCycles)
	}
}

func TestSimulateScheduleVCOnProposed(t *testing.T) {
	// Every step of the proposed schedule, run at flit level with the
	// dateline scheme, completes without stalls: the schedule needs no
	// virtual channels at all, and the total equals the sum of
	// hops+flits per step.
	res, err := oracle.Run(topology.MustNew(8, 8), oracle.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const fpb = 4
	total, stalls, err := SimulateScheduleVC(res.Torus, res.Schedule, fpb, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if stalls != 0 {
		t.Fatalf("proposed schedule stalled %d cycles", stalls)
	}
	want := 0
	for _, ph := range res.Schedule.Phases {
		for _, st := range ph.Steps {
			want += st.MaxHops() + 1 + st.MaxBlocks()*fpb
		}
	}
	if total != want {
		t.Fatalf("total cycles %d, want %d", total, want)
	}
}

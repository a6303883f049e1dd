package collective

import (
	"testing"

	"torusx/internal/costmodel"
	"torusx/internal/exec"
	"torusx/internal/oracle"
	"torusx/internal/schedule"
	"torusx/internal/topology"
)

func allOrigins(t *topology.Torus) []topology.NodeID {
	out := make([]topology.NodeID, t.Nodes())
	for i := range out {
		out[i] = topology.NodeID(i)
	}
	return out
}

// measure runs a built schedule once through the shared executor and
// returns its measure. It takes a collected schedule as it comes:
// measure(schedule.Collect(tor, EmitAllGather)).
func measure(sc *schedule.Schedule, err error) (costmodel.Measure, error) {
	if err != nil {
		return costmodel.Measure{}, err
	}
	res, err := exec.Run(sc, exec.Options{})
	if err != nil {
		return costmodel.Measure{}, err
	}
	return res.Measure, nil
}

func TestBroadcastReachesAll(t *testing.T) {
	for _, dims := range [][]int{{8, 8}, {12, 8}, {5, 3}, {6, 5, 4}, {7, 7}} {
		tor := topology.MustNew(dims...)
		for _, root := range []topology.NodeID{0, topology.NodeID(tor.Nodes() / 2)} {
			sc, err := broadcast(tor, root)
			if err != nil {
				t.Fatalf("%v root %d: %v", dims, root, err)
			}
			checkBroadcast(t, tor, root, sc)
			if err := oracle.Check(sc); err != nil {
				t.Fatalf("%v root %d: %v", dims, root, err)
			}
		}
	}
}

func TestBroadcastStepCount(t *testing.T) {
	// A ring of size a floods in ceil(a/2) + (a even ? 1 : 0) - ...
	// measured bound: at most a/2 + 1 steps per dimension.
	for _, dims := range [][]int{{8, 8}, {12, 12}, {16, 4}} {
		m, err := measure(broadcast(topology.MustNew(dims...), 0))
		if err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
		bound := 0
		for _, d := range dims {
			bound += d/2 + 1
		}
		if m.Steps > bound {
			t.Fatalf("%v: %d steps exceeds bound %d", dims, m.Steps, bound)
		}
		// Far fewer startups than a scatter (which moves N distinct
		// blocks).
		if m.Blocks != m.Steps {
			t.Fatalf("%v: broadcast moves one block per step", dims)
		}
	}
}

// TestBroadcastMeasureRootInvariant: the torus is translation-
// symmetric, so the flood from any root costs what the flood from
// node 0 costs. This is what lets torusx.Broadcast report the
// registry's root-0 program for every root.
func TestBroadcastMeasureRootInvariant(t *testing.T) {
	for _, dims := range [][]int{
		{8, 8}, {12, 8}, {5, 3}, {6, 5, 4}, {7, 7}, {4, 4}, {3},
		{2, 2}, {16, 16}, {4, 1}, {1, 4}, {2, 3, 2}, {9, 6},
	} {
		tor := topology.MustNew(dims...)
		run := func(root topology.NodeID) *exec.Result {
			sc, err := broadcast(tor, root)
			if err != nil {
				t.Fatalf("%v root %d: %v", dims, root, err)
			}
			res, err := exec.Run(sc, exec.Options{})
			if err != nil {
				t.Fatalf("%v root %d: %v", dims, root, err)
			}
			return res
		}
		want := run(0)
		for r := 1; r < tor.Nodes(); r++ {
			got := run(topology.NodeID(r))
			if got.Measure != want.Measure || got.MaxSharing != want.MaxSharing {
				t.Fatalf("%v root %d: measure %+v sharing %d, root 0: %+v sharing %d",
					dims, r, got.Measure, got.MaxSharing, want.Measure, want.MaxSharing)
			}
		}
	}
}

func TestBroadcastValidation(t *testing.T) {
	if _, err := broadcast(topology.MustNew(4, 4), 99); err == nil {
		t.Fatal("out-of-range root should fail")
	}
}

func TestAllGatherReplicatesEverything(t *testing.T) {
	for _, dims := range [][]int{{4, 4}, {8, 8}, {5, 3}, {4, 4, 4}, {6, 5}} {
		tor := topology.MustNew(dims...)
		_, have := allGatherReference(tor)
		if err := verifyReplication(tor, have, allOrigins(tor)); err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
		sc, err := schedule.Collect(tor, EmitAllGather)
		if err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
		if err := oracle.Check(sc); err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
	}
}

func TestAllGatherCosts(t *testing.T) {
	// Ring allgather: sum(ai-1) steps; the last dimension's steps move
	// the largest sets.
	m, err := measure(schedule.Collect(topology.MustNew(8, 8), EmitAllGather))
	if err != nil {
		t.Fatal(err)
	}
	if m.Steps != 7+7 {
		t.Fatalf("steps = %d, want 14", m.Steps)
	}
	// Dim-0 steps carry 1 block; dim-1 steps carry 8.
	if m.Blocks != 7*1+7*8 {
		t.Fatalf("blocks = %d, want 63", m.Blocks)
	}
}

func TestAllGatherSize1Dimension(t *testing.T) {
	tor := topology.MustNew(4, 1)
	ref, have := allGatherReference(tor)
	if err := verifyReplication(tor, have, allOrigins(tor)); err != nil {
		t.Fatal(err)
	}
	sc, err := schedule.Collect(tor, EmitAllGather)
	if err != nil {
		t.Fatal(err)
	}
	sameSteps(t, ref, sc)
}
func TestVerifyReplicationRejects(t *testing.T) {
	tor := topology.MustNew(4, 4)
	have := make([][]topology.NodeID, tor.Nodes())
	for i := range have {
		have[i] = []topology.NodeID{0}
	}
	if err := verifyReplication(tor, have, []topology.NodeID{0}); err != nil {
		t.Fatalf("clean state rejected: %v", err)
	}
	have[3] = []topology.NodeID{0, 0}
	if err := verifyReplication(tor, have, []topology.NodeID{0}); err == nil {
		t.Fatal("duplicate should fail")
	}
	have[3] = []topology.NodeID{1}
	if err := verifyReplication(tor, have, []topology.NodeID{0}); err == nil {
		t.Fatal("unexpected origin should fail")
	}
	have[3] = nil
	if err := verifyReplication(tor, have, []topology.NodeID{0}); err == nil {
		t.Fatal("missing origin should fail")
	}
}

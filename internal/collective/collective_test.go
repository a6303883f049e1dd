package collective

import (
	"testing"

	"torusx/internal/topology"
)

func allOrigins(t *topology.Torus) []topology.NodeID {
	out := make([]topology.NodeID, t.Nodes())
	for i := range out {
		out[i] = topology.NodeID(i)
	}
	return out
}

func TestBroadcastReachesAll(t *testing.T) {
	for _, dims := range [][]int{{8, 8}, {12, 8}, {5, 3}, {6, 5, 4}, {7, 7}} {
		tor := topology.MustNew(dims...)
		for _, root := range []topology.NodeID{0, topology.NodeID(tor.Nodes() / 2)} {
			res, err := Broadcast(tor, root)
			if err != nil {
				t.Fatalf("%v root %d: %v", dims, root, err)
			}
			if err := VerifyReplication(tor, res.Have, []topology.NodeID{root}); err != nil {
				t.Fatalf("%v root %d: %v", dims, root, err)
			}
			if err := res.Schedule.Check(); err != nil {
				t.Fatalf("%v root %d: %v", dims, root, err)
			}
		}
	}
}

func TestBroadcastStepCount(t *testing.T) {
	// A ring of size a floods in ceil(a/2) + (a even ? 1 : 0) - ...
	// measured bound: at most a/2 + 1 steps per dimension.
	for _, dims := range [][]int{{8, 8}, {12, 12}, {16, 4}} {
		tor := topology.MustNew(dims...)
		res, err := Broadcast(tor, 0)
		if err != nil {
			t.Fatal(err)
		}
		bound := 0
		for _, d := range dims {
			bound += d/2 + 1
		}
		if res.Measure.Steps > bound {
			t.Fatalf("%v: %d steps exceeds bound %d", dims, res.Measure.Steps, bound)
		}
		// Far fewer startups than a scatter (which moves N distinct
		// blocks).
		if res.Measure.Blocks != res.Measure.Steps {
			t.Fatalf("%v: broadcast moves one block per step", dims)
		}
	}
}

func TestBroadcastValidation(t *testing.T) {
	if _, err := Broadcast(topology.MustNew(4, 4), 99); err == nil {
		t.Fatal("out-of-range root should fail")
	}
}

func TestAllGatherReplicatesEverything(t *testing.T) {
	for _, dims := range [][]int{{4, 4}, {8, 8}, {5, 3}, {4, 4, 4}, {6, 5}} {
		tor := topology.MustNew(dims...)
		res, err := AllGather(tor)
		if err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
		if err := VerifyReplication(tor, res.Have, allOrigins(tor)); err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
		if err := res.Schedule.Check(); err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
	}
}

func TestAllGatherCosts(t *testing.T) {
	// Ring allgather: sum(ai-1) steps; the last dimension's steps move
	// the largest sets.
	tor := topology.MustNew(8, 8)
	res, err := AllGather(tor)
	if err != nil {
		t.Fatal(err)
	}
	if res.Measure.Steps != 7+7 {
		t.Fatalf("steps = %d, want 14", res.Measure.Steps)
	}
	// Dim-0 steps carry 1 block; dim-1 steps carry 8.
	if res.Measure.Blocks != 7*1+7*8 {
		t.Fatalf("blocks = %d, want 63", res.Measure.Blocks)
	}
}

func TestAllGatherSize1Dimension(t *testing.T) {
	tor := topology.MustNew(4, 1)
	res, err := AllGather(tor)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyReplication(tor, res.Have, allOrigins(tor)); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyReplicationRejects(t *testing.T) {
	tor := topology.MustNew(4, 4)
	have := make([][]topology.NodeID, tor.Nodes())
	for i := range have {
		have[i] = []topology.NodeID{0}
	}
	if err := VerifyReplication(tor, have, []topology.NodeID{0}); err != nil {
		t.Fatalf("clean state rejected: %v", err)
	}
	have[3] = []topology.NodeID{0, 0}
	if err := VerifyReplication(tor, have, []topology.NodeID{0}); err == nil {
		t.Fatal("duplicate should fail")
	}
	have[3] = []topology.NodeID{1}
	if err := VerifyReplication(tor, have, []topology.NodeID{0}); err == nil {
		t.Fatal("unexpected origin should fail")
	}
	have[3] = nil
	if err := VerifyReplication(tor, have, []topology.NodeID{0}); err == nil {
		t.Fatal("missing origin should fail")
	}
}

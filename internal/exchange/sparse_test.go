package exchange

import (
	"math/rand"
	"testing"

	"torusx/internal/block"
	"torusx/internal/oracle"
	"torusx/internal/topology"
)

func TestRunSparseValidation(t *testing.T) {
	tor := topology.MustNew(8, 8)
	if _, err := oracle.RunSparse(tor, []block.Block{{Origin: 0, Dest: 999}}, oracle.Options{}); err == nil {
		t.Fatal("out-of-range dest should fail")
	}
	if _, err := oracle.RunSparse(tor, []block.Block{{Origin: -1, Dest: 0}}, oracle.Options{}); err == nil {
		t.Fatal("out-of-range origin should fail")
	}
	if _, err := oracle.RunSparse(topology.MustNew(10, 4), nil, oracle.Options{}); err == nil {
		t.Fatal("invalid torus should fail")
	}
}

func TestRunSparseEmpty(t *testing.T) {
	res, err := oracle.RunSparse(topology.MustNew(8, 8), nil, oracle.Options{CheckSteps: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, buf := range res.Buffers {
		if buf.Len() != 0 {
			t.Fatalf("node %d holds %d blocks after empty exchange", i, buf.Len())
		}
	}
	// Steps are still charged (schedule structure is fixed).
	if res.Counters.Steps == 0 {
		t.Fatal("schedule should still have its steps")
	}
}

func TestRunSparseSinglePair(t *testing.T) {
	tor := topology.MustNew(12, 8)
	b := block.Block{Origin: 7, Dest: 53}
	res, err := oracle.RunSparse(tor, []block.Block{b}, oracle.Options{CheckSteps: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Buffers[53].Contains(b) || res.Buffers[53].Len() != 1 {
		t.Fatalf("block not delivered: node 53 holds %v", res.Buffers[53].View())
	}
	for i, buf := range res.Buffers {
		if i != 53 && buf.Len() != 0 {
			t.Fatalf("node %d holds stray blocks %v", i, buf.View())
		}
	}
}

func TestRunSparseRandomTraffic(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, dims := range [][]int{{8, 8}, {12, 8}, {8, 8, 4}} {
		tor := topology.MustNew(dims...)
		n := tor.Nodes()
		// Random traffic matrix with ~25% density, duplicates allowed
		// in generation but deduplicated.
		seen := map[block.Block]bool{}
		var blocks []block.Block
		for k := 0; k < n*n/4; k++ {
			b := block.Block{
				Origin: topology.NodeID(rng.Intn(n)),
				Dest:   topology.NodeID(rng.Intn(n)),
			}
			if !seen[b] {
				seen[b] = true
				blocks = append(blocks, b)
			}
		}
		res, err := oracle.RunSparse(tor, blocks, oracle.Options{CheckSteps: true})
		if err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
		delivered := 0
		for i, buf := range res.Buffers {
			for _, b := range buf.View() {
				if int(b.Dest) != i {
					t.Fatalf("%v: node %d holds misdelivered %v", dims, i, b)
				}
				if !seen[b] {
					t.Fatalf("%v: unexpected block %v", dims, b)
				}
				delivered++
			}
		}
		if delivered != len(blocks) {
			t.Fatalf("%v: delivered %d of %d", dims, delivered, len(blocks))
		}
	}
}

func TestRunSparseMultisetTraffic(t *testing.T) {
	// Duplicate (origin, dest) pairs are a multiset: both copies ride
	// the schedule and both arrive (the routing predicates act per
	// block, not per pair).
	tor := topology.MustNew(8, 8)
	b := block.Block{Origin: 3, Dest: 60}
	res, err := oracle.RunSparse(tor, []block.Block{b, b, b}, oracle.Options{CheckSteps: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Buffers[60].Len() != 3 {
		t.Fatalf("node 60 holds %d blocks, want 3 copies", res.Buffers[60].Len())
	}
	for _, got := range res.Buffers[60].View() {
		if got != b {
			t.Fatalf("unexpected block %v", got)
		}
	}
}

func TestRunSparseSelfTraffic(t *testing.T) {
	// Blocks destined to their own origin never move.
	tor := topology.MustNew(8, 8)
	b := block.Block{Origin: 9, Dest: 9}
	res, err := oracle.RunSparse(tor, []block.Block{b}, oracle.Options{CheckSteps: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Buffers[9].Contains(b) {
		t.Fatal("self block lost")
	}
	if res.Counters.SumMaxBlocks != 0 {
		t.Fatalf("self traffic should transmit nothing, got %d", res.Counters.SumMaxBlocks)
	}
}

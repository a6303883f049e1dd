package oracle

import (
	"strings"
	"testing"

	"torusx/internal/block"
	"torusx/internal/topology"
)

// delivered builds the correct final state: node i holds {B[j,i]}.
func delivered(t *topology.Torus) []*Buffer {
	n := t.Nodes()
	bufs := make([]*Buffer, n)
	for i := 0; i < n; i++ {
		bufs[i] = NewBuffer(n)
		for j := 0; j < n; j++ {
			bufs[i].Add(block.Block{Origin: topology.NodeID(j), Dest: topology.NodeID(i)})
		}
	}
	return bufs
}

func TestConservationAccepts(t *testing.T) {
	tor := topology.MustNew(4, 4)
	if err := Conservation(tor, Initial(tor)); err != nil {
		t.Fatal(err)
	}
	if err := Conservation(tor, delivered(tor)); err != nil {
		t.Fatal(err)
	}
}

func TestConservationRejectsDuplicate(t *testing.T) {
	tor := topology.MustNew(4, 4)
	bufs := Initial(tor)
	bufs[3].Add(block.Block{Origin: 0, Dest: 0})
	err := Conservation(tor, bufs)
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("want duplicate error, got %v", err)
	}
}

func TestConservationRejectsMissing(t *testing.T) {
	tor := topology.MustNew(4, 4)
	bufs := Initial(tor)
	bufs[5].TakeIf(func(b block.Block) bool { return b.Dest == 0 })
	err := Conservation(tor, bufs)
	if err == nil || !strings.Contains(err.Error(), "blocks present") {
		t.Fatalf("want count error, got %v", err)
	}
}

func TestConservationRejectsOutOfRange(t *testing.T) {
	tor := topology.MustNew(4, 4)
	bufs := Initial(tor)
	taken, _ := bufs[0].TakeIf(func(b block.Block) bool { return b.Dest == 1 })
	if len(taken) != 1 {
		t.Fatal("setup failed")
	}
	bufs[0].Add(block.Block{Origin: 0, Dest: 99})
	err := Conservation(tor, bufs)
	if err == nil || !strings.Contains(err.Error(), "out-of-range") {
		t.Fatalf("want range error, got %v", err)
	}
}

func TestDeliveredAccepts(t *testing.T) {
	tor := topology.MustNew(4, 4)
	if err := Delivered(tor, delivered(tor)); err != nil {
		t.Fatal(err)
	}
}

func TestDeliveredRejectsInitialState(t *testing.T) {
	tor := topology.MustNew(4, 4)
	if err := Delivered(tor, Initial(tor)); err == nil {
		t.Fatal("initial state is not delivered")
	}
}

func TestDeliveredRejectsWrongCounts(t *testing.T) {
	tor := topology.MustNew(4, 4)
	bufs := delivered(tor)
	bufs[2].Add(block.Block{Origin: 1, Dest: 2})
	err := Delivered(tor, bufs)
	if err == nil {
		t.Fatal("extra block should fail")
	}
	if err := Delivered(tor, bufs[:10]); err == nil {
		t.Fatal("wrong buffer count should fail")
	}
}

func TestDeliveredRejectsMisdelivery(t *testing.T) {
	tor := topology.MustNew(4, 4)
	bufs := delivered(tor)
	// Swap a block between nodes 0 and 1 keeping counts equal.
	a, _ := bufs[0].TakeIf(func(b block.Block) bool { return b.Origin == 5 })
	b1, _ := bufs[1].TakeIf(func(b block.Block) bool { return b.Origin == 5 })
	bufs[0].Add(b1...)
	bufs[1].Add(a...)
	err := Delivered(tor, bufs)
	if err == nil || !strings.Contains(err.Error(), "misdelivered") {
		t.Fatalf("want misdelivery error, got %v", err)
	}
}

func TestDeliveredRejectsDuplicateOrigin(t *testing.T) {
	tor := topology.MustNew(4, 4)
	bufs := delivered(tor)
	bufs[0].TakeIf(func(b block.Block) bool { return b.Origin == 3 })
	bufs[0].Add(block.Block{Origin: 2, Dest: 0})
	err := Delivered(tor, bufs)
	if err == nil || !strings.Contains(err.Error(), "two blocks") {
		t.Fatalf("want duplicate-origin error, got %v", err)
	}
}

func TestProxyPlacementRejectsForeign(t *testing.T) {
	tor := topology.MustNew(8, 8)
	n := tor.Nodes()
	// Build a state where every node holds N blocks from its own group
	// destined to its own submesh — then corrupt one.
	bufs := make([]*Buffer, n)
	tor.EachNode(func(id topology.NodeID, c topology.Coord) {
		buf := NewBuffer(n)
		members := tor.GroupMembers(tor.Group(c))
		sm := tor.SubmeshMembers(tor.Submesh(c))
		for len(buf.View()) < n {
			for _, o := range members {
				for _, d := range sm {
					if buf.Len() < n {
						buf.Add(block.Block{Origin: o, Dest: d})
					}
				}
			}
		}
		bufs[id] = buf
	})
	if err := ProxyPlacement(tor, bufs); err != nil {
		t.Fatalf("clean state rejected: %v", err)
	}
	// Corrupt: replace one block with a foreign-group origin.
	bufs[0].TakeIf(func(b block.Block) bool { return true })
	for bufs[0].Len() < n {
		bufs[0].Add(block.Block{Origin: 1, Dest: 0}) // node 1 is not in group 00
	}
	if err := ProxyPlacement(tor, bufs); err == nil {
		t.Fatal("foreign-group origin should fail")
	}
}

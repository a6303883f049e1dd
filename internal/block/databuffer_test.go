package block_test

import (
	"testing"
	"testing/quick"

	"torusx/internal/block"
	"torusx/internal/oracle"
	"torusx/internal/topology"
)

// These tests pin the data-array semantics of oracle.Buffer, the
// simulators' per-node buffer: order-preserving extraction with its
// contiguity report, insertion at the vacated position, and charged
// against uncharged sorts. The dense builders (exchange's dense.go and
// baseline's rounds.go) are written against the same semantics.

func TestTakeIfContiguousSuffix(t *testing.T) {
	buf := oracle.NewBuffer(6)
	for d := 0; d < 6; d++ {
		buf.Add(block.Block{Origin: 0, Dest: topology.NodeID(d)})
	}
	taken, contig := buf.TakeIf(func(b block.Block) bool { return b.Dest >= 3 })
	if len(taken) != 3 || !contig {
		t.Fatalf("taken=%v contig=%v, want 3 contiguous", taken, contig)
	}
	if buf.Len() != 3 {
		t.Fatalf("remaining = %d, want 3", buf.Len())
	}
	for i, b := range buf.View() {
		if b.Dest != topology.NodeID(i) {
			t.Fatalf("remaining order disturbed: %v", buf.View())
		}
	}
}

func TestTakeIfNonContiguous(t *testing.T) {
	buf := oracle.NewBuffer(6)
	for d := 0; d < 6; d++ {
		buf.Add(block.Block{Origin: 0, Dest: topology.NodeID(d)})
	}
	taken, contig := buf.TakeIf(func(b block.Block) bool { return b.Dest%2 == 0 })
	if len(taken) != 3 || contig {
		t.Fatalf("taken=%v contig=%v, want 3 non-contiguous", taken, contig)
	}
}

func TestTakeIfEmptyIsContiguous(t *testing.T) {
	buf := oracle.NewBuffer(2)
	buf.Add(block.Block{0, 0})
	taken, contig := buf.TakeIf(func(block.Block) bool { return false })
	if len(taken) != 0 || !contig {
		t.Fatalf("empty take should be contiguous, got %v %v", taken, contig)
	}
}

func TestTakeIfAtPositionAndInsertRoundTrip(t *testing.T) {
	buf := oracle.NewBuffer(6)
	for d := 0; d < 6; d++ {
		buf.Add(block.Block{Origin: 0, Dest: topology.NodeID(d)})
	}
	// Remove the middle run [2,3].
	taken, pos, contig := buf.TakeIfAt(func(b block.Block) bool { return b.Dest == 2 || b.Dest == 3 })
	if len(taken) != 2 || pos != 2 || !contig {
		t.Fatalf("taken=%v pos=%d contig=%v", taken, pos, contig)
	}
	// Insert replacements back at the vacated position.
	buf.InsertAt(pos, []block.Block{{9, 2}, {9, 3}})
	want := []block.Block{{0, 0}, {0, 1}, {9, 2}, {9, 3}, {0, 4}, {0, 5}}
	for i, b := range buf.View() {
		if b != want[i] {
			t.Fatalf("slot %d = %v, want %v (array %v)", i, b, want[i], buf.View())
		}
	}
}

func TestTakeIfAtEmptyPos(t *testing.T) {
	buf := oracle.NewBuffer(2)
	buf.Add(block.Block{0, 0}, block.Block{0, 1})
	taken, pos, contig := buf.TakeIfAt(func(block.Block) bool { return false })
	if len(taken) != 0 || pos != 2 || !contig {
		t.Fatalf("taken=%v pos=%d contig=%v, want empty at end", taken, pos, contig)
	}
	buf.InsertAt(pos, []block.Block{{1, 1}})
	if buf.Len() != 3 || buf.View()[2] != (block.Block{1, 1}) {
		t.Fatalf("append-insert failed: %v", buf.View())
	}
}

func TestInsertAtFrontAndPanic(t *testing.T) {
	buf := oracle.NewBuffer(2)
	buf.Add(block.Block{0, 1})
	buf.InsertAt(0, []block.Block{{0, 0}})
	if buf.View()[0] != (block.Block{0, 0}) || buf.View()[1] != (block.Block{0, 1}) {
		t.Fatalf("front insert failed: %v", buf.View())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("InsertAt out of range should panic")
		}
	}()
	buf.InsertAt(5, []block.Block{{9, 9}})
}

func TestSortDoesNotCharge(t *testing.T) {
	buf := oracle.NewBuffer(3)
	buf.Add(block.Block{0, 2}, block.Block{0, 0}, block.Block{0, 1})
	buf.Sort(func(a, b block.Block) bool { return a.Dest < b.Dest })
	for i, b := range buf.View() {
		if b.Dest != topology.NodeID(i) {
			t.Fatalf("Sort failed: %v", buf.View())
		}
	}
	if buf.Rearrangements != 0 || buf.RearrangedBlocks != 0 {
		t.Fatal("Sort must not charge a rearrangement")
	}
}

func TestCountIf(t *testing.T) {
	buf := oracle.NewBuffer(8)
	for d := 0; d < 8; d++ {
		buf.Add(block.Block{Origin: 1, Dest: topology.NodeID(d)})
	}
	if n := buf.CountIf(func(b block.Block) bool { return b.Dest < 5 }); n != 5 {
		t.Fatalf("CountIf = %d, want 5", n)
	}
	if !buf.Contains(block.Block{Origin: 1, Dest: 2}) || buf.Contains(block.Block{Origin: 2, Dest: 1}) {
		t.Fatal("Contains mismatch")
	}
}

func TestArrangeSortsAndCharges(t *testing.T) {
	buf := oracle.NewBuffer(4)
	buf.Add(block.Block{0, 3}, block.Block{0, 1}, block.Block{0, 2}, block.Block{0, 0})
	buf.Arrange(func(a, b block.Block) bool { return a.Dest < b.Dest })
	for i, b := range buf.View() {
		if b.Dest != topology.NodeID(i) {
			t.Fatalf("not sorted: %v", buf.View())
		}
	}
	if buf.Rearrangements != 1 || buf.RearrangedBlocks != 4 {
		t.Fatalf("charges = %d/%d, want 1/4", buf.Rearrangements, buf.RearrangedBlocks)
	}
	buf.ChargeRearrangement(10)
	if buf.Rearrangements != 2 || buf.RearrangedBlocks != 14 {
		t.Fatalf("ChargeRearrangement: %d/%d", buf.Rearrangements, buf.RearrangedBlocks)
	}
}

func TestSortByKeyMatchesSort(t *testing.T) {
	mk := func() *oracle.Buffer {
		buf := oracle.NewBuffer(16)
		for _, d := range []int{9, 3, 7, 3, 1, 14, 0, 7} {
			buf.Add(block.Block{Origin: 1, Dest: topology.NodeID(d)})
		}
		return buf
	}
	a, b := mk(), mk()
	a.SortByKey(func(blk block.Block) int { return int(blk.Dest) })
	b.Sort(func(x, y block.Block) bool { return x.Dest < y.Dest })
	for i := range a.View() {
		if a.View()[i] != b.View()[i] {
			t.Fatalf("slot %d: SortByKey %v vs Sort %v", i, a.View()[i], b.View()[i])
		}
	}
	if a.Rearrangements != 0 {
		t.Fatal("SortByKey must not charge")
	}
}

func TestSortByKeyStability(t *testing.T) {
	buf := oracle.NewBuffer(4)
	// Equal keys: original order of origins must be preserved.
	buf.Add(block.Block{Origin: 3, Dest: 5}, block.Block{Origin: 1, Dest: 5}, block.Block{Origin: 2, Dest: 5})
	buf.SortByKey(func(block.Block) int { return 0 })
	want := []topology.NodeID{3, 1, 2}
	for i, b := range buf.View() {
		if b.Origin != want[i] {
			t.Fatalf("stability broken: %v", buf.View())
		}
	}
}

func TestArrangeByKeyCharges(t *testing.T) {
	buf := oracle.NewBuffer(3)
	buf.Add(block.Block{0, 2}, block.Block{0, 0}, block.Block{0, 1})
	buf.ArrangeByKey(func(b block.Block) int { return int(b.Dest) })
	for i, b := range buf.View() {
		if b.Dest != topology.NodeID(i) {
			t.Fatalf("not sorted: %v", buf.View())
		}
	}
	if buf.Rearrangements != 1 || buf.RearrangedBlocks != 3 {
		t.Fatalf("charges = %d/%d, want 1/3", buf.Rearrangements, buf.RearrangedBlocks)
	}
}

func TestInitialDistribution(t *testing.T) {
	tor := topology.MustNew(4, 4)
	bufs := oracle.Initial(tor)
	if len(bufs) != 16 {
		t.Fatalf("buffers = %d, want 16", len(bufs))
	}
	for i, buf := range bufs {
		if buf.Len() != 16 {
			t.Fatalf("node %d holds %d blocks, want 16", i, buf.Len())
		}
		for j, b := range buf.View() {
			want := block.Block{Origin: topology.NodeID(i), Dest: topology.NodeID(j)}
			if b != want {
				t.Fatalf("node %d slot %d = %v, want %v", i, j, b, want)
			}
		}
	}
	if oracle.TotalBlocks(bufs) != 256 {
		t.Fatalf("TotalBlocks = %d, want 256", oracle.TotalBlocks(bufs))
	}
	if oracle.TotalRearrangedBlocks(bufs) != 0 {
		t.Fatal("fresh buffers should have no rearrangements")
	}
}

// Property: TakeIf partitions the buffer — every block ends up exactly
// once in either taken or remaining, and taken order is stable.
func TestTakeIfPartitionProperty(t *testing.T) {
	f := func(dests []uint8, threshold uint8) bool {
		buf := oracle.NewBuffer(len(dests))
		for _, d := range dests {
			buf.Add(block.Block{Origin: 0, Dest: topology.NodeID(d)})
		}
		before := buf.All()
		taken, _ := buf.TakeIf(func(b block.Block) bool { return uint8(b.Dest) < threshold })
		if len(taken)+buf.Len() != len(before) {
			return false
		}
		// Merge taken and remaining back by the predicate, preserving order.
		ti, ri := 0, 0
		for _, b := range before {
			if uint8(b.Dest) < threshold {
				if ti >= len(taken) || taken[ti] != b {
					return false
				}
				ti++
			} else {
				if ri >= buf.Len() || buf.View()[ri] != b {
					return false
				}
				ri++
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

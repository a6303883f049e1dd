package oracle

import (
	"testing"

	"torusx/internal/block"
	"torusx/internal/topology"
)

func benchBuffer(n int) *Buffer {
	buf := NewBuffer(n)
	for i := 0; i < n; i++ {
		buf.Add(block.Block{Origin: topology.NodeID(i % 64), Dest: topology.NodeID((i * 7) % n)})
	}
	return buf
}

func BenchmarkSortByKey(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		buf := benchBuffer(4096)
		b.StartTimer()
		buf.SortByKey(func(blk block.Block) int { return int(blk.Dest) })
	}
}

func BenchmarkSortComparator(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		buf := benchBuffer(4096)
		b.StartTimer()
		buf.Sort(func(x, y block.Block) bool { return x.Dest < y.Dest })
	}
}

func BenchmarkTakeIfAt(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		buf := benchBuffer(4096)
		b.StartTimer()
		buf.TakeIfAt(func(blk block.Block) bool { return blk.Dest >= 2048 })
	}
}

func BenchmarkInsertAt(b *testing.B) {
	batch := benchBuffer(512).All()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		buf := benchBuffer(4096)
		b.StartTimer()
		buf.InsertAt(2048, batch)
	}
}

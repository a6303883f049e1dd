package block

import (
	"math/rand"
	"testing"

	"torusx/internal/topology"
)

func TestChecksumDeterministicAndDistinct(t *testing.T) {
	a := Block{Origin: 1, Dest: 2}
	b := Block{Origin: 2, Dest: 1}
	if a.Checksum() != (Block{Origin: 1, Dest: 2}).Checksum() {
		t.Fatal("checksum not deterministic")
	}
	if a.Checksum() == b.Checksum() {
		t.Fatal("swapped origin/dest should differ")
	}
	seen := make(map[uint64]Block)
	for o := 0; o < 64; o++ {
		for d := 0; d < 64; d++ {
			blk := Block{Origin: topology.NodeID(o), Dest: topology.NodeID(d)}
			if prev, dup := seen[blk.Checksum()]; dup {
				t.Fatalf("checksum collision: %v and %v", prev, blk)
			}
			seen[blk.Checksum()] = blk
		}
	}
}

func TestBlockString(t *testing.T) {
	if got := (Block{Origin: 3, Dest: 7}).String(); got != "B[3,7]" {
		t.Fatalf("String = %q", got)
	}
}

func TestBufferAddLenAll(t *testing.T) {
	buf := NewBuffer(4)
	if buf.Len() != 0 {
		t.Fatal("new buffer not empty")
	}
	buf.Add(Block{0, 1}, Block{0, 2})
	buf.Add(Block{0, 3})
	if buf.Len() != 3 {
		t.Fatalf("Len = %d, want 3", buf.Len())
	}
	all := buf.All()
	if len(all) != 3 || all[0] != (Block{0, 1}) || all[2] != (Block{0, 3}) {
		t.Fatalf("All = %v", all)
	}
	all[0] = Block{9, 9}
	if buf.View()[0] != (Block{0, 1}) {
		t.Fatal("All must return a copy")
	}
}

// TestBufferRefill: Refill hands back exactly n writable blocks that
// become the contents, and reuses the backing array whenever it is
// large enough.
func TestBufferRefill(t *testing.T) {
	buf := NewBuffer(4)
	buf.Add(Block{0, 1}, Block{0, 2}, Block{0, 3})
	blks := buf.Refill(2)
	if len(blks) != 2 || buf.Len() != 2 {
		t.Fatalf("Refill(2): %d blocks, Len %d", len(blks), buf.Len())
	}
	blks[0], blks[1] = Block{5, 6}, Block{7, 8}
	if v := buf.View(); v[0] != (Block{5, 6}) || v[1] != (Block{7, 8}) {
		t.Fatalf("writes through Refill's slice not visible: %v", v)
	}
	if allocs := testing.AllocsPerRun(10, func() { buf.Refill(4) }); allocs != 0 {
		t.Fatalf("Refill within capacity allocates %v", allocs)
	}
	if blks := buf.Refill(9); len(blks) != 9 || buf.Len() != 9 {
		t.Fatalf("Refill(9) past capacity: %d blocks, Len %d", len(blks), buf.Len())
	}
}

// TestNewBuffersWindows: NewBuffers carves every buffer from one
// backing with capacity exactly its size, so filling each in place
// never reallocates and an Add past one buffer's window cannot write
// into the next buffer's blocks.
func TestNewBuffersWindows(t *testing.T) {
	sizes := []int32{2, 0, 3}
	bufs := NewBuffers(sizes)
	if len(bufs) != len(sizes) {
		t.Fatalf("%d buffers, want %d", len(bufs), len(sizes))
	}
	for i, b := range bufs {
		if b.Len() != 0 {
			t.Fatalf("buffer %d starts with %d blocks", i, b.Len())
		}
		blks := b.Refill(int(sizes[i]))
		for k := range blks {
			blks[k] = Block{Origin: topology.NodeID(i), Dest: topology.NodeID(k)}
		}
	}
	if allocs := testing.AllocsPerRun(10, func() {
		for i, b := range bufs {
			b.Refill(int(sizes[i]))
		}
	}); allocs != 0 {
		t.Fatalf("refilling carved buffers within their windows allocates %v", allocs)
	}
	bufs[0].Add(Block{Origin: 9, Dest: 9})
	if got := bufs[2].View()[0]; got != (Block{Origin: 2, Dest: 0}) {
		t.Fatalf("Add past buffer 0's window overwrote buffer 2: %v", got)
	}
	if bufs[0].Len() != 3 || bufs[0].View()[2] != (Block{Origin: 9, Dest: 9}) {
		t.Fatalf("Add past the window lost blocks: %v", bufs[0].View())
	}
}

// TestDestOfExact holds DestOf to id mod n: every id for n <= 64, and
// above that, up to the largest n whose n² ids fit an int32, the ids
// around the multiples of n that can go wrong first, the ends of the
// range and random ids.
func TestDestOfExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ns := []int{1000, 1024, 4096, 8192, 46339, 46340}
	for n := 1; n <= 64; n++ {
		ns = append(ns, n)
	}
	for _, n := range ns {
		d := NewDestOf(n)
		top := int64(n) * int64(n)
		check := func(id int64) {
			if got, want := d.Dest(int32(id)), int32(id%int64(n)); got != want {
				t.Fatalf("n=%d id=%d: Dest %d, want %d", n, id, got, want)
			}
		}
		if n <= 64 {
			for id := int64(0); id < top; id++ {
				check(id)
			}
			continue
		}
		for _, k := range []int64{1, 2, int64(n) / 2, int64(n) - 1} {
			check(k*int64(n) - 1)
			check(k * int64(n))
			check(k*int64(n) + 1)
		}
		check(0)
		check(top - 1)
		for i := 0; i < 1000; i++ {
			check(rng.Int63n(top))
		}
	}
}

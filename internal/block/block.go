// Package block models the message blocks moved by an all-to-all
// personalized exchange and the per-node buffers holding them.
//
// In an N-node system, node i starts with N distinct blocks
// B[i,1..N], one for each destination, and must end with the N blocks
// B[1..N,i]. A block is identified by its (Origin, Dest) pair; its
// m-byte payload is modelled by a deterministic checksum so the
// simulators can verify data integrity without materialising payload
// bytes.
//
// Buffer holds the blocks a replay delivers to one node. The
// simulators' data arrays, which charge rearrangements, are
// oracle.Buffer.
package block

import (
	"fmt"
	"unsafe"

	"torusx/internal/topology"
)

// Block is one personalized message block.
type Block struct {
	Origin topology.NodeID // the node whose data this is
	Dest   topology.NodeID // the node that must finally receive it
}

// A Block is two 4-byte node ids, so a replay's Result.Buffers backing
// costs 8 bytes per delivered block. These declarations fail to compile
// if its size drifts.
var (
	_ [unsafe.Sizeof(Block{}) - 8]struct{}
	_ [8 - unsafe.Sizeof(Block{})]struct{}
)

func (b Block) String() string {
	return fmt.Sprintf("B[%d,%d]", b.Origin, b.Dest)
}

// ID returns b's dense id in an n-node exchange, Origin*n + Dest: the
// name schedule payloads and the compiled executor use. It does not
// range-check; a block outside [0, n)² has no id.
func (b Block) ID(n int) int32 {
	return int32(int(b.Origin)*n + int(b.Dest))
}

// IDs returns the dense ids of bs in an n-node exchange, in order, as
// a new exact-size slice.
func IDs(bs []Block, n int) []int32 {
	ids := make([]int32, len(bs))
	for i, b := range bs {
		ids[i] = b.ID(n)
	}
	return ids
}

// FromID inverts ID: the block whose dense id in an n-node exchange is
// id.
func FromID(id int32, n int) Block {
	o := int(id) / n
	return Block{Origin: topology.NodeID(o), Dest: topology.NodeID(int(id) - o*n)}
}

// DestOf returns the destination of dense ids in an n-node exchange
// (id mod n) by a multiply and a shift in place of a division, for a
// builder that classifies every block by its destination at each phase
// boundary. recip = ceil(2^48 / n) gives id*recip >> 48 == id / n for
// every id in [0, n²) whenever n² ids fit an int32 (n < 46341): with
// recip*n = 2^48 + e, 0 <= e < n, the excess id*e / (n * 2^48) stays
// below 1/n because id*e < n³ < 2^48, and id*recip stays below 2^64.
type DestOf struct {
	n     int32
	recip uint64
}

// NewDestOf returns DestOf for an n-node exchange, n >= 1.
func NewDestOf(n int) DestOf {
	return DestOf{n: int32(n), recip: (1<<48 + uint64(n) - 1) / uint64(n)}
}

// Dest returns the destination node of dense id, which must lie in
// [0, n²).
func (d DestOf) Dest(id int32) int32 {
	return id - int32(uint64(uint32(id))*d.recip>>48)*d.n
}

// Checksum returns a deterministic payload fingerprint for b, standing
// in for the m-byte payload of the paper's model. FNV-1a over the two
// ids.
func (b Block) Checksum() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, v := range [2]uint64{uint64(b.Origin), uint64(b.Dest)} {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime
		}
	}
	return h
}

// Buffer is one node's ordered array of blocks.
type Buffer struct {
	blocks []Block
}

// NewBuffer returns an empty buffer with capacity for n blocks.
func NewBuffer(n int) *Buffer {
	return &Buffer{blocks: make([]Block, 0, n)}
}

// NewBuffers returns one empty buffer per entry of sizes, buffer i with
// capacity for sizes[i] blocks, all carved from one backing array: three
// allocations however many buffers. Each buffer's window is capped at
// its own size, so an Add past it reallocates that buffer instead of
// writing into its neighbour's blocks.
func NewBuffers(sizes []int32) []*Buffer {
	total := 0
	for _, s := range sizes {
		total += int(s)
	}
	backing := make([]Block, total)
	bufs := make([]Buffer, len(sizes))
	out := make([]*Buffer, len(sizes))
	off := 0
	for i, s := range sizes {
		end := off + int(s)
		bufs[i].blocks = backing[off:off:end]
		out[i] = &bufs[i]
		off = end
	}
	return out
}

// Len returns the number of blocks held.
func (buf *Buffer) Len() int { return len(buf.blocks) }

// Refill empties the buffer and returns n blocks that become its contents, for the caller to write
// in place. The backing array is reused when its capacity allows, so
// the compiled executor's replay arenas refill their delivery buffers
// in one pass with no allocation and no per-block Add.
func (buf *Buffer) Refill(n int) []Block {
	if cap(buf.blocks) < n {
		buf.blocks = make([]Block, n)
	}
	buf.blocks = buf.blocks[:n]
	return buf.blocks
}

// Add appends blocks to the end of the array (the paper's model of a
// reception: incoming blocks land in the consumption buffer region).
func (buf *Buffer) Add(bs ...Block) {
	buf.blocks = append(buf.blocks, bs...)
}

// All returns a copy of the held blocks in array order.
func (buf *Buffer) All() []Block {
	return append([]Block(nil), buf.blocks...)
}

// View returns the underlying slice without copying. Callers must not
// mutate it.
func (buf *Buffer) View() []Block { return buf.blocks }

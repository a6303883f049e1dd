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
// Buffers are ordered: the paper's cost model charges a
// message-rearrangement step whenever the blocks a node must transmit
// are not contiguous in its data array. Buffer tracks exactly that —
// TakeIf reports whether the extraction was contiguous, and Arrange
// records an explicit rearrangement.
package block

import (
	"fmt"
	"sort"
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

// Buffer is one node's ordered data array of blocks.
type Buffer struct {
	blocks []Block

	// Rearrangements counts explicit Arrange calls plus forced
	// rearrangements (non-contiguous TakeIf extractions when strict
	// accounting is enabled by the caller).
	Rearrangements int
	// RearrangedBlocks accumulates the number of blocks touched by
	// those rearrangements (the paper charges m·ρ per block moved).
	RearrangedBlocks int
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

// Refill empties the buffer, clears its rearrangement counters and
// returns n blocks that become its contents, for the caller to write
// in place. The backing array is reused when its capacity allows, so
// the compiled executor's replay arenas refill their delivery buffers
// in one pass with no allocation and no per-block Add.
func (buf *Buffer) Refill(n int) []Block {
	if cap(buf.blocks) < n {
		buf.blocks = make([]Block, n)
	}
	buf.blocks = buf.blocks[:n]
	buf.Rearrangements = 0
	buf.RearrangedBlocks = 0
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

// Contains reports whether the buffer holds b.
func (buf *Buffer) Contains(b Block) bool {
	for _, x := range buf.blocks {
		if x == b {
			return true
		}
	}
	return false
}

// TakeIfAt removes every block satisfying pred, returning the removed
// blocks in array order, the index at which the removed run began, and
// whether the removed blocks formed one contiguous run (in which case
// no rearrangement would be needed to transmit them). The relative
// order of remaining blocks is preserved. When the extraction was
// contiguous, inserting received blocks back at pos reproduces the
// paper's in-place data array: incoming blocks land in the positions
// vacated by outgoing ones, which is what keeps every later extraction
// contiguous too. When nothing was taken, pos is the buffer length
// (append position).
func (buf *Buffer) TakeIfAt(pred func(Block) bool) (taken []Block, pos int, contiguous bool) {
	first, last := -1, -1
	keep := buf.blocks[:0]
	for i, b := range buf.blocks {
		if pred(b) {
			if first < 0 {
				first = i
			}
			last = i
			taken = append(taken, b)
		} else {
			keep = append(keep, b)
		}
	}
	buf.blocks = keep
	if len(taken) == 0 {
		return nil, len(buf.blocks), true
	}
	return taken, first, last-first+1 == len(taken)
}

// TakeIf is TakeIfAt without the position.
func (buf *Buffer) TakeIf(pred func(Block) bool) (taken []Block, contiguous bool) {
	taken, _, contiguous = buf.TakeIfAt(pred)
	return taken, contiguous
}

// InsertAt places bs into the array starting at position pos,
// shifting later blocks right. pos must be in [0, Len()].
func (buf *Buffer) InsertAt(pos int, bs []Block) {
	if pos < 0 || pos > len(buf.blocks) {
		panic(fmt.Sprintf("block: InsertAt position %d out of range [0,%d]", pos, len(buf.blocks)))
	}
	buf.blocks = append(buf.blocks, bs...)           // grow
	copy(buf.blocks[pos+len(bs):], buf.blocks[pos:]) // shift tail right
	copy(buf.blocks[pos:], bs)
}

// CountIf returns the number of held blocks satisfying pred.
func (buf *Buffer) CountIf(pred func(Block) bool) int {
	n := 0
	for _, b := range buf.blocks {
		if pred(b) {
			n++
		}
	}
	return n
}

// Sort orders the array with the given ordering without charging a
// rearrangement. Used for the initial data-array layout, which the
// paper assumes is in place before the exchange starts.
func (buf *Buffer) Sort(less func(a, b Block) bool) {
	sort.SliceStable(buf.blocks, func(i, j int) bool {
		return less(buf.blocks[i], buf.blocks[j])
	})
}

// SortByKey stably sorts the array ascending by an integer key,
// computing each block's key exactly once (decorate-sort-undecorate).
// Much faster than Sort for expensive key functions.
func (buf *Buffer) SortByKey(key func(Block) int) {
	n := len(buf.blocks)
	keys := make([]int, n)
	idx := make([]int, n)
	for i, b := range buf.blocks {
		keys[i] = key(b)
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	out := make([]Block, n)
	for p, i := range idx {
		out[p] = buf.blocks[i]
	}
	buf.blocks = out
}

// ArrangeByKey is SortByKey plus a charged rearrangement of every held
// block, modelling an inter-phase rearrangement step.
func (buf *Buffer) ArrangeByKey(key func(Block) int) {
	buf.SortByKey(key)
	buf.Rearrangements++
	buf.RearrangedBlocks += len(buf.blocks)
}

// Arrange sorts the array with the given ordering and charges one
// rearrangement touching every held block. This models the paper's
// inter-phase rearrangement step.
func (buf *Buffer) Arrange(less func(a, b Block) bool) {
	buf.Sort(less)
	buf.Rearrangements++
	buf.RearrangedBlocks += len(buf.blocks)
}

// ChargeRearrangement records a rearrangement of n blocks without
// changing the array, for callers that account rearrangement
// analytically rather than by sorting.
func (buf *Buffer) ChargeRearrangement(n int) {
	buf.Rearrangements++
	buf.RearrangedBlocks += n
}

// Initial builds the starting buffers of an all-to-all personalized
// exchange on t: node i holds blocks {B[i,j] : j in 0..N-1}, ordered
// by destination id.
func Initial(t *topology.Torus) []*Buffer {
	n := t.Nodes()
	bufs := make([]*Buffer, n)
	for i := 0; i < n; i++ {
		buf := NewBuffer(n)
		for j := 0; j < n; j++ {
			buf.Add(Block{Origin: topology.NodeID(i), Dest: topology.NodeID(j)})
		}
		bufs[i] = buf
	}
	return bufs
}

// TotalBlocks sums the block counts of all buffers.
func TotalBlocks(bufs []*Buffer) int {
	total := 0
	for _, b := range bufs {
		total += b.Len()
	}
	return total
}

// TotalRearrangedBlocks sums per-buffer rearranged-block counts.
func TotalRearrangedBlocks(bufs []*Buffer) int {
	total := 0
	for _, b := range bufs {
		total += b.RearrangedBlocks
	}
	return total
}

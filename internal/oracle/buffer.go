package oracle

import (
	"fmt"
	"sort"

	"torusx/internal/block"
	"torusx/internal/topology"
)

// Buffer is one node's ordered data array of blocks, as the
// paper-following simulators hold it. The paper's cost model charges a
// message-rearrangement step whenever the blocks a node must transmit
// are not contiguous in its data array, so Buffer tracks exactly that:
// TakeIf reports whether the extraction was contiguous, and Arrange
// records an explicit rearrangement.
type Buffer struct {
	blocks []block.Block

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
	return &Buffer{blocks: make([]block.Block, 0, n)}
}

// Len returns the number of blocks held.
func (buf *Buffer) Len() int { return len(buf.blocks) }

// Add appends blocks to the end of the array (the paper's model of a
// reception: incoming blocks land in the consumption buffer region).
func (buf *Buffer) Add(bs ...block.Block) {
	buf.blocks = append(buf.blocks, bs...)
}

// All returns a copy of the held blocks in array order.
func (buf *Buffer) All() []block.Block {
	return append([]block.Block(nil), buf.blocks...)
}

// View returns the underlying slice without copying. Callers must not
// mutate it.
func (buf *Buffer) View() []block.Block { return buf.blocks }

// Contains reports whether the buffer holds b.
func (buf *Buffer) Contains(b block.Block) bool {
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
func (buf *Buffer) TakeIfAt(pred func(block.Block) bool) (taken []block.Block, pos int, contiguous bool) {
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
func (buf *Buffer) TakeIf(pred func(block.Block) bool) (taken []block.Block, contiguous bool) {
	taken, _, contiguous = buf.TakeIfAt(pred)
	return taken, contiguous
}

// InsertAt places bs into the array starting at position pos,
// shifting later blocks right. pos must be in [0, Len()].
func (buf *Buffer) InsertAt(pos int, bs []block.Block) {
	if pos < 0 || pos > len(buf.blocks) {
		panic(fmt.Sprintf("oracle: InsertAt position %d out of range [0,%d]", pos, len(buf.blocks)))
	}
	buf.blocks = append(buf.blocks, bs...)           // grow
	copy(buf.blocks[pos+len(bs):], buf.blocks[pos:]) // shift tail right
	copy(buf.blocks[pos:], bs)
}

// CountIf returns the number of held blocks satisfying pred.
func (buf *Buffer) CountIf(pred func(block.Block) bool) int {
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
func (buf *Buffer) Sort(less func(a, b block.Block) bool) {
	sort.SliceStable(buf.blocks, func(i, j int) bool {
		return less(buf.blocks[i], buf.blocks[j])
	})
}

// SortByKey stably sorts the array ascending by an integer key,
// computing each block's key exactly once (decorate-sort-undecorate).
// Much faster than Sort for expensive key functions.
func (buf *Buffer) SortByKey(key func(block.Block) int) {
	n := len(buf.blocks)
	keys := make([]int, n)
	idx := make([]int, n)
	for i, b := range buf.blocks {
		keys[i] = key(b)
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	out := make([]block.Block, n)
	for p, i := range idx {
		out[p] = buf.blocks[i]
	}
	buf.blocks = out
}

// ArrangeByKey is SortByKey plus a charged rearrangement of every held
// block, modelling an inter-phase rearrangement step.
func (buf *Buffer) ArrangeByKey(key func(block.Block) int) {
	buf.SortByKey(key)
	buf.Rearrangements++
	buf.RearrangedBlocks += len(buf.blocks)
}

// Arrange sorts the array with the given ordering and charges one
// rearrangement touching every held block. This models the paper's
// inter-phase rearrangement step.
func (buf *Buffer) Arrange(less func(a, b block.Block) bool) {
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
			buf.Add(block.Block{Origin: topology.NodeID(i), Dest: topology.NodeID(j)})
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

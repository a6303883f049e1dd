package exchange

import (
	"fmt"

	"torusx/internal/block"
	"torusx/internal/plan"
	"torusx/internal/schedule"
	"torusx/internal/topology"
)

// Dense payload schedule builder. Every rule of the n+2 phases picks a
// block by one class of its destination: the destination's ring unit
// (coordinate / 4) along the holder's group-phase move, or the bit mask
// of the destination's quad bits ((coordinate mod 4) / 2) or low bits
// (coordinate mod 2) across all dimensions. So each node gets a small
// table indexed by class — a boundary's sort key or a step's send flag —
// and a phase is a table lookup per held block, the way the combining
// baselines' round engine (internal/baseline/rounds.go) runs.
//
// Buffers hold dense block ids (origin*n + dest), every node's in one
// flat array, double-buffered. Each boundary is a stable counting sort by
// the node's key table, which keeps equal keys in array order as
// block.Buffer.SortByKey does; each step takes the selected blocks in
// array order and lands the received ones at the position the
// receiver's first taken block vacated, as block.Buffer.TakeIfAt and
// InsertAt do. The result is the schedule Run records with
// RecordPayloads, which TestPayloadScheduleMatchesRun holds it to.

// PayloadSchedule returns the complete exchange's schedule on t with
// every transfer's payload: the schedule of Run(t, Options{RecordPayloads:
// true}), built without the block-level simulator.
func PayloadSchedule(t *topology.Torus) (*schedule.Schedule, error) {
	return schedule.Collect(t, func(s schedule.Sink) error { return EmitPayload(t, s) })
}

// EmitPayload emits PayloadSchedule's phases and steps into sink, each
// step as soon as it is built.
func EmitPayload(t *topology.Torus, sink schedule.Sink) error {
	if err := t.ValidateForExchange(); err != nil {
		return err
	}
	n := t.Nodes()
	d := newDense(t, n*n)
	for i := range d.ids {
		d.ids[i] = int32(i)
	}
	for v := 0; v <= n; v++ {
		d.off[v] = int32(v * n)
	}
	return d.run(sink)
}

// SparsePayloadSchedule is PayloadSchedule carrying only blocks, every
// node starting with its own blocks in input order: the schedule of
// RunSparse(t, blocks, Options{RecordPayloads: true}), errors included.
func SparsePayloadSchedule(t *topology.Torus, blocks []block.Block) (*schedule.Schedule, error) {
	n := t.Nodes()
	for _, b := range blocks {
		if int(b.Origin) < 0 || int(b.Origin) >= n || int(b.Dest) < 0 || int(b.Dest) >= n {
			return nil, fmt.Errorf("exchange: block %v out of range", b)
		}
	}
	if err := t.ValidateForExchange(); err != nil {
		return nil, err
	}
	d := newDense(t, len(blocks))
	for _, b := range blocks {
		d.off[b.Origin+1]++
	}
	for v := 0; v < n; v++ {
		d.off[v+1] += d.off[v]
	}
	copy(d.nextOff, d.off)
	for _, b := range blocks {
		d.ids[d.nextOff[b.Origin]] = b.ID(n)
		d.nextOff[b.Origin]++
	}
	return schedule.Collect(t, d.run)
}

// dense is the builder's state: the buffers, the per-destination class
// tables and each node's class-indexed table for the current boundary or
// step.
type dense struct {
	t       *topology.Torus
	n, nd   int
	classes int // table width per node: max(a1/4, 2^nd)
	coords  []topology.Coord
	dest    []int32 // block id -> destination node

	unit      [][]int32 // dim -> destination node -> ring unit along dim
	quad, low []int32   // destination node -> quad-bit / low-bit mask (bit d for dim d)

	cls   [][]int32   // node -> its class table (one of unit[d], quad, low)
	tab   []int32     // node v's class -> key or send flag at [v*classes, (v+1)*classes)
	moves []plan.Move // node -> its move in the current step
	count []int32     // counting-sort buckets

	ids, next    []int32 // node v's buffer is ids[off[v]:off[v+1]]
	off, nextOff []int32
	taken        []int32 // this step's sent ids, node v's at [takenOff[v], takenOff[v+1])
	takenOff     []int32
	keep, at     []int32 // node -> blocks it kept, position its first taken block held
	from         []int32 // node -> the node it receives from this step, -1 none
}

func newDense(t *topology.Torus, blocks int) *dense {
	n, nd := t.Nodes(), t.NDims()
	d := &dense{
		t: t, n: n, nd: nd,
		classes:  1 << nd,
		coords:   make([]topology.Coord, n),
		dest:     make([]int32, n*n),
		unit:     make([][]int32, nd),
		quad:     make([]int32, n),
		low:      make([]int32, n),
		cls:      make([][]int32, n),
		moves:    make([]plan.Move, n),
		ids:      make([]int32, blocks),
		next:     make([]int32, blocks),
		off:      make([]int32, n+1),
		nextOff:  make([]int32, n+1),
		taken:    make([]int32, blocks),
		takenOff: make([]int32, n+1),
		keep:     make([]int32, n),
		at:       make([]int32, n),
		from:     make([]int32, n),
	}
	if u := t.Dim(0) / topology.GroupStride; u > d.classes {
		d.classes = u
	}
	d.tab = make([]int32, n*d.classes)
	d.count = make([]int32, d.classes+1)
	units := make([]int32, nd*n)
	for dim := range d.unit {
		d.unit[dim] = units[dim*n : (dim+1)*n]
	}
	for v := 0; v < n; v++ {
		c := t.CoordOf(topology.NodeID(v))
		d.coords[v] = c
		d.dest[v] = int32(v)
		for dim, x := range c {
			d.unit[dim][v] = int32(x / topology.GroupStride)
			d.quad[v] |= int32(x%topology.GroupStride/2) << dim
			d.low[v] |= int32(x%2) << dim
		}
	}
	for w := n; w < len(d.dest); w *= 2 {
		copy(d.dest[w:], d.dest[:w])
	}
	return d
}

// table returns node v's class-indexed table.
func (d *dense) table(v int) []int32 {
	return d.tab[v*d.classes : (v+1)*d.classes]
}

// maskGrayRank is grayRank of the bit string x>>order[j]&1: the
// position of mask x in the binary-reflected Gray sequence over the
// given dimension order, first dimension most significant.
func maskGrayRank(x int32, order []int) int32 {
	var rank, cur int32
	for _, dim := range order {
		cur ^= x >> dim & 1
		rank = rank<<1 | cur
	}
	return rank
}

// run emits the n+2 phases into sink.
func (d *dense) run(sink schedule.Sink) error {
	n, nd := d.n, d.nd

	// Group phases: the key of a block is its remaining stride-4 ring
	// distance along the node's move, and a step sends every block with
	// a nonzero key, so one table serves the boundary and every step.
	groups := make([][]plan.Move, n)
	for v := range groups {
		groups[v] = plan.GroupPhases(d.coords[v])
	}
	for p := 0; p < nd; p++ {
		for v := 0; v < n; v++ {
			m := groups[v][p]
			d.moves[v] = m
			d.cls[v] = d.unit[m.Dim]
			units := int32(d.t.Dim(m.Dim) / topology.GroupStride)
			own := d.unit[m.Dim][v]
			tab := d.table(v)
			for u := int32(0); u < units; u++ {
				k := u - own
				if m.Dir == topology.Neg {
					k = -k
				}
				tab[u] = (k%units + units) % units
			}
		}
		d.arrange()
		// The layout before group phase 1 is the starting data
		// structure, not a charged rearrangement (Section 3.3).
		rearrange := n
		if p == 0 {
			rearrange = 0
		}
		if err := d.phase(sink, fmt.Sprintf("group-%d", p+1), rearrange, d.t.Dim(0)/topology.GroupStride-1, topology.GroupStride, func(int) {}); err != nil {
			return err
		}
	}

	// Quad and bit phases: the Gray order of the node's dimension
	// sequence, then one pairwise exchange per dimension of it, distance
	// 2 across quad bits and then distance 1 across low bits.
	dims := make([]int, nd)
	for dim := range dims {
		dims[dim] = dim
	}
	if err := d.pairPhase(sink, "quad", d.quad, 2, plan.QuadOrder, plan.QuadMove); err != nil {
		return err
	}
	return d.pairPhase(sink, "bit", d.low, 1, func(topology.Coord) []int { return dims }, plan.BitMove)
}

// pairPhase arranges every node's buffer in the Gray order of mask
// differences over its dimension order, then runs one step per
// dimension: each node sends the blocks whose mask differs from its own
// in the dimension of its move.
func (d *dense) pairPhase(sink schedule.Sink, name string, mask []int32, hops int, order func(topology.Coord) []int, move func(topology.Coord, int) plan.Move) error {
	for v := 0; v < d.n; v++ {
		ord := order(d.coords[v])
		d.cls[v] = mask
		tab := d.table(v)
		for m := range tab[:1<<d.nd] {
			tab[m] = maskGrayRank(int32(m)^mask[v], ord)
		}
	}
	d.arrange()
	return d.phase(sink, name, d.n, d.nd, hops, func(s int) {
		for v := 0; v < d.n; v++ {
			d.moves[v] = move(d.coords[v], s+1)
			tab, own, dim := d.table(v), mask[v], d.moves[v].Dim
			for m := range tab[:1<<d.nd] {
				tab[m] = (int32(m) ^ own) >> dim & 1
			}
		}
	})
}

// phase emits a phase of steps steps of hops hops each, charged with a
// rearrangement of rearrange blocks, setStep(s) filling the moves and
// send tables of step s.
func (d *dense) phase(sink schedule.Sink, name string, rearrange, steps, hops int, setStep func(s int)) error {
	sink.Phase(name, rearrange)
	for s := 0; s < steps; s++ {
		setStep(s)
		if err := sink.Step(d.step(hops)); err != nil {
			return err
		}
	}
	return nil
}

// arrange stably sorts every node's buffer by its key table, by
// counting sort: keys are below d.classes.
func (d *dense) arrange() {
	cnt := d.count
	for v := 0; v < d.n; v++ {
		lo, hi := d.off[v], d.off[v+1]
		buf, out := d.ids[lo:hi], d.next[lo:hi]
		tab, cls := d.table(v), d.cls[v]
		clear(cnt)
		for _, id := range buf {
			cnt[tab[cls[d.dest[id]]]+1]++
		}
		for k := 1; k < len(cnt); k++ {
			cnt[k] += cnt[k-1]
		}
		for _, id := range buf {
			k := tab[cls[d.dest[id]]]
			out[cnt[k]] = id
			cnt[k]++
		}
	}
	d.ids, d.next = d.next, d.ids
}

// step runs one synchronous step: every node sends the blocks its table
// flags, hops along its move, and every receiver inserts what it gets at
// the position its own first sent block held (the end when it sent
// none). The moves of a step pair every receiver with one sender. The
// step's transfers and payloads each get one exact-size backing; the
// payloads lie back to back in transfer order, each slice's capacity
// reaching to the backing's end, so exec.CompileStream adopts a large
// step's ids where they are.
func (d *dense) step(hops int) schedule.Step {
	n := d.n
	w, senders := 0, 0
	for v := 0; v < n; v++ {
		buf := d.ids[d.off[v]:d.off[v+1]]
		tab, cls := d.table(v), d.cls[v]
		d.takenOff[v] = int32(w)
		k, at := 0, -1
		for i, id := range buf {
			if tab[cls[d.dest[id]]] != 0 {
				if at < 0 {
					at = i
				}
				d.taken[w] = id
				w++
			} else {
				buf[k] = id
				k++
			}
		}
		if at < 0 {
			at = k
		}
		d.keep[v], d.at[v] = int32(k), int32(at)
		if int(d.takenOff[v]) < w {
			senders++
		}
	}
	d.takenOff[n] = int32(w)
	var st schedule.Step
	if senders == 0 {
		return st
	}

	payload := append([]int32(nil), d.taken[:w]...)
	st.Transfers = make([]schedule.Transfer, 0, senders)
	for v := range d.from {
		d.from[v] = -1
	}
	for v := 0; v < n; v++ {
		lo, hi := d.takenOff[v], d.takenOff[v+1]
		if lo == hi {
			continue
		}
		m := d.moves[v]
		dst := d.t.Advance(topology.NodeID(v), m.Dim, m.Dir, hops)
		d.from[dst] = int32(v)
		st.Transfers = append(st.Transfers, schedule.Transfer{
			Src: topology.NodeID(v), Dst: dst,
			Dim: m.Dim, Dir: m.Dir, Hops: hops,
			Blocks: int(hi - lo), Payload: payload[lo:hi],
		})
	}

	w = 0
	for v := 0; v < n; v++ {
		d.nextOff[v] = int32(w)
		kept := d.ids[d.off[v] : d.off[v]+d.keep[v]]
		at := d.at[v]
		w += copy(d.next[w:], kept[:at])
		if s := d.from[v]; s >= 0 {
			w += copy(d.next[w:], d.taken[d.takenOff[s]:d.takenOff[s+1]])
		}
		w += copy(d.next[w:], kept[at:])
	}
	d.nextOff[n] = int32(w)
	d.ids, d.next = d.next, d.ids
	d.off, d.nextOff = d.nextOff, d.off
	return st
}

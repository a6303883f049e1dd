// Package exchange builds the Suh–Shin all-to-all personalized
// exchange schedules for n-dimensional tori (ICPP'98), n >= 2.
//
// The algorithm runs in n+2 phases on an a1×…×an torus whose
// dimensions are multiples of four with a1 >= … >= an:
//
//   - Phases 1..n (group phases): the 4^n node groups — subtori of
//     stride 4 — each perform an internal all-to-all by ring scatters,
//     one dimension per phase, with the dimension order and direction
//     assigned by package plan so that all groups proceed in parallel
//     without channel contention. Every message travels exactly 4 hops
//     and each phase has a1/4 − 1 steps. A block destined for node d
//     is routed to its proxy: the node of the originator's group that
//     sits in d's 4×…×4 submesh.
//   - Phase n+1 (quad phase): n steps of distance-2 pairwise exchanges
//     move blocks to the correct 2×…×2 submesh inside each 4×…×4
//     submesh.
//   - Phase n+2 (bit phase): n steps of distance-1 pairwise exchanges
//     deliver blocks to their final destination inside each 2×…×2
//     submesh.
//
// Between consecutive phases (n+1 boundaries) every node rearranges
// its data array once. The package holds the builders only, each one
// an emitter into a schedule.Sink: the dense and sparse payload
// schedules (EmitPayload, EmitSparsePayload), the structural schedule
// (EmitStructural) and the virtual-node extension's helpers
// (VirtualTori, PadDims, HostLoads). The paper-following block simulator their tests hold
// them to is oracle.Run.
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
// (coordinate mod 2) across all dimensions. So a boundary sorts each
// node's blocks by a small key table indexed by class, and a step's
// send rule compares a class with the node's own.
//
// Each boundary is a stable counting sort of every node's blocks by its
// key table, which keeps equal keys in array order as
// oracle.Buffer.SortByKey does. It is the only pass that reads a block
// on its own: it derives each block's destination from its id
// (block.DestOf), so no table is indexed by block id. After it every
// node's buffer is a list of runs, one per class, and the blocks of a
// run share every send flag of the phase, so the phase's steps move
// runs. Each step takes the selected runs in buffer order and lands the
// received ones at the position the receiver's first taken run
// vacated, as oracle.Buffer.TakeIfAt and InsertAt do; the blocks stay
// where the boundary wrote them until the step's payload copies them.
// The result is the schedule oracle.Run records with RecordPayloads,
// which TestPayloadScheduleMatchesRun holds it to.

// EmitPayload emits the complete exchange's schedule on t into sink,
// with every transfer's payload, each step as soon as it is built: the
// schedule of oracle.Run(t, oracle.Options{RecordPayloads: true}),
// built without the block-level simulator. The paper proves one node group
// contention-free and carries the proof to every node by (r+c) mod 4:
// the schedule declares the lattice of period 4 in every dimension.
func EmitPayload(t *topology.Torus, sink schedule.Sink) error {
	if err := t.ValidateForExchange(); err != nil {
		return err
	}
	sink.Lattice(topology.GroupStride)
	n := t.Nodes()
	off := make([]int32, n+1)
	for v := range off {
		off[v] = int32(v * n)
	}
	d := newDense(t, off)
	for i := range d.ids {
		d.ids[i] = int32(i)
	}
	return d.run(sink)
}

// EmitSparsePayload is EmitPayload carrying only blocks, every node
// starting with its own blocks in input order: it emits the schedule of
// oracle.RunSparse(t, blocks, oracle.Options{RecordPayloads: true}),
// errors included. It declares no lattice.
func EmitSparsePayload(t *topology.Torus, blocks []block.Block, sink schedule.Sink) error {
	n := t.Nodes()
	for _, b := range blocks {
		if int(b.Origin) < 0 || int(b.Origin) >= n || int(b.Dest) < 0 || int(b.Dest) >= n {
			return fmt.Errorf("exchange: block %v out of range", b)
		}
	}
	if err := t.ValidateForExchange(); err != nil {
		return err
	}
	off := make([]int32, n+1)
	for _, b := range blocks {
		off[b.Origin+1]++
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	d := newDense(t, off)
	for _, b := range blocks {
		d.ids[off[b.Origin]] = b.ID(n)
		off[b.Origin]++
	}
	return d.run(sink)
}

// dense is the builder's state: the blocks, each node's buffer as runs
// of them, the per-destination class tables and each node's move in the
// current phase or step.
type dense struct {
	t      *topology.Torus
	n, nd  int
	coords []topology.Coord
	destOf block.DestOf

	unit      [][]int32 // dim -> destination node -> ring unit along dim
	quad, low []int32   // destination node -> quad-bit / low-bit mask (bit d for dim d)
	// mask is the current pair phase's class table, nil in a group
	// phase, whose class table is unit[the node's move's dimension].
	mask  []int32
	moves []plan.Move // node -> its move in the current phase or step

	key     []int32 // one node's class -> counting-sort key: max(a1/4, 2^nd) entries
	count   []int32 // counting-sort buckets, by class
	byKey   []int32 // counting-sort key -> class
	classes []int32 // scratch: the class of each of one node's blocks, in order

	ids, spare     []int32 // the blocks, as the last boundary laid them out, and scratch
	runs, nextRuns []run   // node v's buffer is the blocks of runs[roff[v]:roff[v+1]], in order
	roff, nextRoff []int32
	sent           []run // this step's sent runs, node v's at [sentOff[v], sentOff[v+1])
	sentOff        []int32
	keep, at       []int32 // node -> runs it kept, position its first taken run held
	from           []int32 // node -> the node it receives from this step, -1 none
}

// A run is the blocks ids[lo:hi] of one class, in order.
type run struct{ lo, hi, cls int32 }

// newDense returns the builder holding node v's blocks at
// ids[off[v]:off[v+1]], for the caller to fill.
func newDense(t *topology.Torus, off []int32) *dense {
	n, nd := t.Nodes(), t.NDims()
	blocks := int(off[n])
	d := &dense{
		t: t, n: n, nd: nd,
		coords:   make([]topology.Coord, n),
		destOf:   block.NewDestOf(n),
		unit:     make([][]int32, nd),
		quad:     make([]int32, n),
		low:      make([]int32, n),
		moves:    make([]plan.Move, n),
		ids:      make([]int32, blocks),
		spare:    make([]int32, blocks),
		roff:     make([]int32, n+1),
		nextRoff: make([]int32, n+1),
		sentOff:  make([]int32, n+1),
		keep:     make([]int32, n),
		at:       make([]int32, n),
		from:     make([]int32, n),
	}
	classes := max(t.Dim(0)/topology.GroupStride, 1<<nd)
	d.key = make([]int32, classes)
	d.count = make([]int32, classes)
	d.byKey = make([]int32, classes)
	// A boundary leaves at most one run per class and node, and never
	// more runs than blocks; a step only moves runs.
	maxRuns := min(blocks, n*classes)
	d.runs = make([]run, 0, maxRuns)
	d.nextRuns = make([]run, maxRuns)
	d.sent = make([]run, maxRuns)
	for v := 0; v < n; v++ {
		if off[v] < off[v+1] {
			d.runs = append(d.runs, run{off[v], off[v+1], 0})
		}
		d.roff[v+1] = int32(len(d.runs))
	}
	d.runs = d.runs[:maxRuns]
	units := make([]int32, nd*n)
	for dim := range d.unit {
		d.unit[dim] = units[dim*n : (dim+1)*n]
	}
	for v := 0; v < n; v++ {
		c := t.CoordOf(topology.NodeID(v))
		d.coords[v] = c
		for dim, x := range c {
			d.unit[dim][v] = int32(x / topology.GroupStride)
			d.quad[v] |= int32(x%topology.GroupStride/2) << dim
			d.low[v] |= int32(x%2) << dim
		}
	}
	return d
}

// classOf returns node v's class table in the current phase.
func (d *dense) classOf(v int) []int32 {
	if d.mask != nil {
		return d.mask
	}
	return d.unit[d.moves[v].Dim]
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
	// a nonzero key: every block not yet in the node's ring unit.
	groups := make([][]plan.Move, n)
	for v := range groups {
		groups[v] = plan.GroupPhases(d.coords[v])
	}
	inFlight := func(v int, cls int32) bool { return cls != d.unit[d.moves[v].Dim][v] }
	for p := 0; p < nd; p++ {
		d.mask = nil
		for v := 0; v < n; v++ {
			d.moves[v] = groups[v][p]
		}
		d.arrange(func(v int, key []int32) {
			m := d.moves[v]
			units := int32(d.t.Dim(m.Dim) / topology.GroupStride)
			own := d.unit[m.Dim][v]
			for u := range key {
				k := int32(u)
				if k < units {
					k -= own
					if m.Dir == topology.Neg {
						k = -k
					}
					k = (k%units + units) % units
				}
				key[u] = k
			}
		})
		// The layout before group phase 1 is the starting data
		// structure, not a charged rearrangement (Section 3.3).
		rearrange := n
		if p == 0 {
			rearrange = 0
		}
		if err := d.phase(sink, fmt.Sprintf("group-%d", p+1), rearrange, d.t.Dim(0)/topology.GroupStride-1, topology.GroupStride, func(int) {}, inFlight); err != nil {
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
	d.mask = mask
	d.arrange(func(v int, key []int32) {
		ord := order(d.coords[v])
		for m := range key {
			key[m] = int32(m)
			if m < 1<<d.nd {
				key[m] = maskGrayRank(int32(m)^mask[v], ord)
			}
		}
	})
	return d.phase(sink, name, d.n, d.nd, hops, func(s int) {
		for v := 0; v < d.n; v++ {
			d.moves[v] = move(d.coords[v], s+1)
		}
	}, func(v int, cls int32) bool {
		return (cls^mask[v])>>d.moves[v].Dim&1 != 0
	})
}

// phase emits a phase of steps steps of hops hops each, charged with a
// rearrangement of rearrange blocks, setStep(s) filling the moves of
// step s and sends(v, c) telling whether node v sends its blocks of
// class c.
func (d *dense) phase(sink schedule.Sink, name string, rearrange, steps, hops int, setStep func(s int), sends func(v int, c int32) bool) error {
	sink.Phase(name, rearrange)
	for s := 0; s < steps; s++ {
		setStep(s)
		if err := sink.Step(d.step(hops, sends)); err != nil {
			return err
		}
	}
	return nil
}

// arrange stably sorts every node's buffer by its key table, which
// keyOf(v, key) fills with a permutation of [0, len(key)), by counting
// sort, and leaves it as one run per class present, in key order.
func (d *dense) arrange(keyOf func(v int, key []int32)) {
	cnt, byKey := d.count, d.byKey
	w, nr := int32(0), int32(0)
	for v := 0; v < d.n; v++ {
		runs := d.runs[d.roff[v]:d.roff[v+1]]
		nb := 0
		for _, rn := range runs {
			nb += int(rn.hi - rn.lo)
		}
		if cap(d.classes) < nb {
			d.classes = make([]int32, nb)
		}
		classes, cls := d.classes[:nb], d.classOf(v)
		clear(cnt)
		i := 0
		for _, rn := range runs {
			for _, id := range d.ids[rn.lo:rn.hi] {
				c := cls[d.destOf.Dest(id)]
				classes[i] = c
				cnt[c]++
				i++
			}
		}
		keyOf(v, d.key)
		for c, k := range d.key {
			byKey[k] = int32(c)
		}
		d.nextRoff[v] = nr
		for _, c := range byKey {
			if k := cnt[c]; k > 0 {
				d.nextRuns[nr] = run{w, w + k, c}
				nr++
				cnt[c] = w
				w += k
			}
		}
		i = 0
		for _, rn := range runs {
			for _, id := range d.ids[rn.lo:rn.hi] {
				c := classes[i]
				d.spare[cnt[c]] = id
				cnt[c]++
				i++
			}
		}
	}
	d.nextRoff[d.n] = nr
	d.ids, d.spare = d.spare, d.ids
	d.runs, d.nextRuns = d.nextRuns, d.runs
	d.roff, d.nextRoff = d.nextRoff, d.roff
}

// step runs one synchronous step: every node sends the runs sends
// picks, hops along its move, and every receiver inserts what it gets at
// the position its own first sent run held (the end when it sent
// none). The moves of a step pair every receiver with one sender. The
// step's transfers and payloads each get one exact-size backing; the
// payloads lie back to back in transfer order, each slice's capacity
// reaching to the backing's end, so exec.CompileStream adopts a large
// step's ids where they are.
func (d *dense) step(hops int, sends func(v int, c int32) bool) schedule.Step {
	n := d.n
	w, blocks, senders := 0, 0, 0
	for v := 0; v < n; v++ {
		runs := d.runs[d.roff[v]:d.roff[v+1]]
		d.sentOff[v] = int32(w)
		k, at := 0, -1
		for _, rn := range runs {
			if sends(v, rn.cls) {
				if at < 0 {
					at = k
				}
				d.sent[w] = rn
				w++
				blocks += int(rn.hi - rn.lo)
			} else {
				runs[k] = rn
				k++
			}
		}
		if at < 0 {
			at = k
		}
		d.keep[v], d.at[v] = int32(k), int32(at)
		if int(d.sentOff[v]) < w {
			senders++
		}
	}
	d.sentOff[n] = int32(w)
	var st schedule.Step
	if senders == 0 {
		return st
	}

	payload := make([]int32, blocks)
	st.Transfers = make([]schedule.Transfer, 0, senders)
	for v := range d.from {
		d.from[v] = -1
	}
	p := 0
	for v := 0; v < n; v++ {
		lo, hi := d.sentOff[v], d.sentOff[v+1]
		if lo == hi {
			continue
		}
		m := d.moves[v]
		dst := d.t.Advance(topology.NodeID(v), m.Dim, m.Dir, hops)
		d.from[dst] = int32(v)
		p0 := p
		for _, rn := range d.sent[lo:hi] {
			p += copy(payload[p:], d.ids[rn.lo:rn.hi])
		}
		st.Transfers = append(st.Transfers, schedule.Transfer{
			Src: topology.NodeID(v), Dst: dst,
			Dim: m.Dim, Dir: m.Dir, Hops: hops,
			Blocks: p - p0, Payload: payload[p0:p],
		})
	}

	w = 0
	for v := 0; v < n; v++ {
		d.nextRoff[v] = int32(w)
		kept := d.runs[d.roff[v] : d.roff[v]+d.keep[v]]
		at := d.at[v]
		w += copy(d.nextRuns[w:], kept[:at])
		if s := d.from[v]; s >= 0 {
			w += copy(d.nextRuns[w:], d.sent[d.sentOff[s]:d.sentOff[s+1]])
		}
		w += copy(d.nextRuns[w:], kept[at:])
	}
	d.nextRoff[n] = int32(w)
	d.runs, d.nextRuns = d.nextRuns, d.runs
	d.roff, d.nextRoff = d.nextRoff, d.roff
	return st
}

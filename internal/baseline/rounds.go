package baseline

import (
	"errors"
	"slices"

	"torusx/internal/schedule"
	"torusx/internal/topology"
)

// rounds is the dense round engine behind the three combining
// baselines (Ring, Factored, LogTime). Each of their rounds moves, from
// every node to the node dist ahead along one dimension, the blocks
// whose remaining ring offset along that dimension passes a fixed digit
// rule. The builder fills send[off] for every offset. send[0] must be
// false, so a block at its coordinate never moves again in the phase: a
// round whose table sends it returns errSendsSettled, and a phase that
// ends with blocks in flight errInFlight, so a builder's bad table is an
// error its emitter returns, never a panic.
//
// The rounds follow oracle.Buffer.TakeIf followed by Add, the semantics
// the builders were written against: a round keeps each node's unsent
// blocks in order and appends what it receives at the end.
//
// The engine touches only blocks in flight, and never one at a time.
// When the phase along dimension k starts, every node's buffer is a
// list of rows. A row is one origin's blocks to the destinations that
// share their coordinates below k, so its ids are consecutive. It
// splits into size cells of stride ids, one per destination coordinate
// along k. The rule picks whole cells by offset, and every node is a
// translate of node 0, so every node holds its blocks in flight as the
// same list of segments. A segment is the cells at a set of offsets in
// every row of the node shift places behind, row by row: a round keeps
// each row's unsent cells together and in order, and a receiver appends
// a sender's cells in the sender's order. A round splits the segments
// into kept and sent ones, moves the sent ones dist on, and writes each
// node's payload as ids: its segments' sent cells, row by row and in
// coordinate order within a row. The cell that reaches its coordinate
// settles, and the cells a node settles, in order, are the rows of its
// next phase. So a round costs the ids it sends, and no table is
// indexed by block id.
//
// Each step's transfers and payloads get one exact-size backing each.
// The payloads lie back to back in transfer order, each slice's
// capacity reaching to the backing's end, so exec.CompileStream adopts
// a large step's ids where they are.
type rounds struct {
	t      *topology.Torus
	n      int
	dim    int
	size   int
	stride int // node-id stride of dim, and the ids in a cell
	last   int // the last dimension of size above 1

	coord []int32 // node -> its coordinate along dim
	send  []bool  // offset -> sent this round; filled by the builder

	rows  []int32 // node v's rows' first ids at rows[v*nrows:][:nrows]
	nrows int
	segs  []segment // every node's blocks in flight, in buffer order
	// held collects the rows of the next phase, node v's at
	// held[v*nrows*size:][:nheld[v]]; nil in the last phase.
	held  []int32
	nheld []int32
}

// A segment of a node's buffer is, for each row of the node shift
// places behind it along dim, in order, the cells at offsets offs from
// the node's own coordinate.
type segment struct {
	shift int
	offs  []int32 // ascending
}

// newRounds returns the engine holding oracle.Initial(t)'s buffers: node
// i holds B[i,0..N-1] in destination order, one row of all its ids.
func newRounds(t *topology.Torus) *rounds {
	n := t.Nodes()
	r := &rounds{
		t: t, n: n,
		coord: make([]int32, n),
		rows:  make([]int32, n), nrows: 1,
		nheld: make([]int32, n),
	}
	for v := range r.rows {
		r.rows[v] = int32(v * n)
	}
	for d := 0; d < t.NDims(); d++ {
		if t.Dim(d) > 1 {
			r.last = d
		}
	}
	return r
}

var (
	errInFlight     = errors.New("baseline: a phase of rounds ended with blocks in flight")
	errSendsSettled = errors.New("baseline: a round sends blocks at their coordinate")
)

// settled returns errInFlight unless the phase along the current
// dimension has settled every block.
func (r *rounds) settled() error {
	if len(r.segs) > 0 {
		return errInFlight
	}
	return nil
}

// setDim points the engine's rounds at dimension dim, after the phase
// along the previous dimension has settled every block, and returns
// its send table, one entry per ring offset, for the builder to fill.
func (r *rounds) setDim(dim int) ([]bool, error) {
	if err := r.settled(); err != nil {
		return nil, err
	}
	if r.held != nil {
		r.rows, r.nrows, r.held = r.held, r.nrows*r.size, nil
	}
	r.dim, r.size = dim, r.t.Dim(dim)
	r.stride = 1
	for d := dim + 1; d < r.t.NDims(); d++ {
		r.stride *= r.t.Dim(d)
	}
	r.send = make([]bool, r.size)
	if r.size == 1 {
		return r.send, nil
	}
	for v := range r.coord {
		r.coord[v] = int32(v / r.stride % r.size)
	}
	offs := make([]int32, r.size-1)
	for i := range offs {
		offs[i] = int32(i + 1)
	}
	r.segs = []segment{{offs: offs}}
	if dim < r.last {
		r.held = make([]int32, r.n*r.nrows*r.size)
		clear(r.nheld)
		for v := 0; v < r.n; v++ {
			r.settle(v, r.rowsOf(v, 0))
		}
	}
	return r.send, nil
}

// rowsOf returns the rows node v holds in a segment of shift shift: the
// rows node v's phase started with at the node shift places behind it.
func (r *rounds) rowsOf(v, shift int) []int32 {
	c := int(r.coord[v])
	o := c - shift
	if o < 0 {
		o += r.size
	}
	o = v + (o-c)*r.stride
	return r.rows[o*r.nrows : (o+1)*r.nrows]
}

// settle files, in order, the cell at node v's coordinate of each row
// as a row of v's next phase, when there is one.
func (r *rounds) settle(v int, rows []int32) {
	if r.held == nil {
		return
	}
	cell := r.coord[v] * int32(r.stride)
	h := r.held[v*r.nrows*r.size:]
	k := r.nheld[v]
	for _, b := range rows {
		h[k] = b + cell
		k++
	}
	r.nheld[v] = k
}

// step runs one round: every node sends the cells in flight that the
// send table selects to the node dist ahead along the current dimension
// (0 < dist < size). It returns the round as a step — Transfers nil
// when no node sends — and leaves the segments as they are after the
// round.
func (r *rounds) step(dist int, shared bool) (schedule.Step, error) {
	n, size := r.n, r.size
	if r.send[0] {
		return schedule.Step{}, errSendsSettled
	}
	// Split every segment into its kept and sent offsets. The sent ones
	// arrive dist closer, and the one at offset dist, now 0, settles.
	sents := make([][]int32, len(r.segs))
	var kept, arrived []segment
	m := 0
	for i, sg := range r.segs {
		var keep, sent []int32
		for _, off := range sg.offs {
			if r.send[off] {
				sent = append(sent, off)
			} else {
				keep = append(keep, off)
			}
		}
		sents[i] = sent
		m += len(sent) * r.nrows * r.stride
		if len(keep) > 0 {
			kept = append(kept, segment{sg.shift, keep})
		}
		on := rotated(nil, sent, size-dist, size)
		if len(on) > 0 && on[0] == 0 {
			on = on[1:]
		}
		if len(on) > 0 {
			arrived = append(arrived, segment{(sg.shift + dist) % size, on})
		}
	}
	st := schedule.Step{Shared: shared}
	if m == 0 {
		return st, nil
	}

	payload := make([]int32, n*m)
	st.Transfers = make([]schedule.Transfer, n)
	stride := int32(r.stride)
	var dcs []int32 // a segment's sent cells' coordinates at node v
	for v := 0; v < n; v++ {
		c := int(r.coord[v])
		nc := c + dist
		if nc >= size {
			nc -= size
		}
		dst := v + (nc-c)*r.stride
		pay := payload[v*m : v*m : (v+1)*m]
		for i, sg := range r.segs {
			sent := sents[i]
			if len(sent) == 0 {
				continue
			}
			dcs = rotated(dcs[:0], sent, c, size)
			rows := r.rowsOf(v, sg.shift)
			for _, b := range rows {
				for _, dc := range dcs {
					first := b + dc*stride
					for id := first; id < first+stride; id++ {
						pay = append(pay, id)
					}
				}
			}
			if slices.Contains(sent, int32(dist)) {
				r.settle(dst, rows)
			}
		}
		st.Transfers[v] = schedule.Transfer{
			Src: topology.NodeID(v), Dst: topology.NodeID(dst),
			Dim: r.dim, Dir: topology.Pos, Hops: dist,
			Blocks: m, Payload: payload[v*m : (v+1)*m],
		}
	}
	r.segs = append(kept, arrived...)
	return st, nil
}

// rotated appends to dst each of the ascending offsets offs moved on by
// by (0 <= by < size) around a ring of size, (off + by) mod size, in
// ascending order: the ones that wrap past the ring's end come first.
func rotated(dst, offs []int32, by, size int) []int32 {
	p, _ := slices.BinarySearch(offs, int32(size-by))
	for _, off := range offs[p:] {
		dst = append(dst, off+int32(by-size))
	}
	for _, off := range offs[:p] {
		dst = append(dst, off+int32(by))
	}
	return dst
}

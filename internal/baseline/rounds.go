package baseline

import (
	"torusx/internal/schedule"
	"torusx/internal/topology"
)

// rounds is the dense round engine behind the three combining
// baselines (Ring, Factored, LogTime). Each of their rounds moves, from
// every node to the node dist ahead along one dimension, the blocks
// whose remaining ring offset along that dimension passes a fixed digit
// rule, so a round is a table lookup: the builder fills send[off] for
// every offset, and the engine partitions each node's buffer by
// send[(destination coordinate − own coordinate) mod size].
//
// Buffers hold dense block ids (origin*n + dest), every node's in one
// flat array. A round keeps each node's unsent blocks in order and
// appends what it receives at the end — block.Buffer.TakeIf followed by
// Add, the semantics the builders were written against. The scratch is
// allocated once per schedule; each step's transfers and payloads get
// one exact-size backing each. The payloads lie back to back in
// transfer order, each slice's capacity reaching to the backing's end,
// so exec.CompileStream adopts a large step's ids where they are.
type rounds struct {
	t      *topology.Torus
	n      int
	dim    int
	size   int
	stride int // node-id stride of dim

	coord []int32 // node -> its coordinate along dim
	dc    []int32 // block id -> its destination's coordinate along dim
	send  []bool  // offset -> sent this round; filled by the builder
	wrap  []bool  // send twice over: wrap[size-c:][x] == send[(x-c) mod size]

	ids, next    []int32 // node v's buffer is ids[off[v]:off[v+1]]
	off, nextOff []int32
	taken        []int32 // this round's sent ids, node v's at [takenOff[v], takenOff[v+1])
	takenOff     []int32
	keep         []int32 // node -> blocks it kept this round
	from         []int32 // node -> the node it receives from this round, -1 none
}

// newRounds returns the engine holding block.Initial(t)'s buffers: node
// i holds B[i,0..N-1] in destination order.
func newRounds(t *topology.Torus) *rounds {
	n := t.Nodes()
	r := &rounds{
		t: t, n: n,
		coord:    make([]int32, n),
		dc:       make([]int32, n*n),
		ids:      make([]int32, n*n),
		next:     make([]int32, n*n),
		off:      make([]int32, n+1),
		nextOff:  make([]int32, n+1),
		taken:    make([]int32, n*n),
		takenOff: make([]int32, n+1),
		keep:     make([]int32, n),
		from:     make([]int32, n),
	}
	for i := range r.ids {
		r.ids[i] = int32(i)
	}
	for v := 0; v <= n; v++ {
		r.off[v] = int32(v * n)
	}
	return r
}

// setDim points the engine's rounds at dimension dim and returns its
// send table, one entry per ring offset, for the builder to fill.
func (r *rounds) setDim(dim int) []bool {
	r.dim, r.size = dim, r.t.Dim(dim)
	r.stride = 1
	for d := dim + 1; d < r.t.NDims(); d++ {
		r.stride *= r.t.Dim(d)
	}
	for v := range r.coord {
		r.coord[v] = int32(v / r.stride % r.size)
	}
	for o := 0; o < r.n; o++ {
		copy(r.dc[o*r.n:], r.coord)
	}
	r.send = make([]bool, r.size)
	r.wrap = make([]bool, 2*r.size)
	return r.send
}

// step runs one round: every node sends the blocks the send table
// selects to the node dist ahead along the current dimension (0 < dist
// < size). It returns the round as a step — Transfers nil when no node
// sends — and leaves the buffers as they are after the round.
func (r *rounds) step(dist int, shared bool) schedule.Step {
	n, size := r.n, r.size
	for x := range r.wrap {
		r.wrap[x] = r.send[x%size]
	}
	w, senders := 0, 0
	for v := 0; v < n; v++ {
		c := int(r.coord[v])
		rot := r.wrap[size-c : 2*size-c]
		buf := r.ids[r.off[v]:r.off[v+1]]
		r.takenOff[v] = int32(w)
		k := 0
		for _, id := range buf {
			if rot[r.dc[id]] {
				r.taken[w] = id
				w++
			} else {
				buf[k] = id
				k++
			}
		}
		r.keep[v] = int32(k)
		if int(r.takenOff[v]) < w {
			senders++
		}
	}
	r.takenOff[n] = int32(w)
	st := schedule.Step{Shared: shared}
	if senders == 0 {
		return st
	}

	payload := append([]int32(nil), r.taken[:w]...)
	st.Transfers = make([]schedule.Transfer, 0, senders)
	for v := range r.from {
		r.from[v] = -1
	}
	for v := 0; v < n; v++ {
		lo, hi := r.takenOff[v], r.takenOff[v+1]
		if lo == hi {
			continue
		}
		c := int(r.coord[v])
		nc := c + dist
		if nc >= size {
			nc -= size
		}
		dst := v + (nc-c)*r.stride
		r.from[dst] = int32(v)
		st.Transfers = append(st.Transfers, schedule.Transfer{
			Src: topology.NodeID(v), Dst: topology.NodeID(dst),
			Dim: r.dim, Dir: topology.Pos, Hops: dist,
			Blocks: int(hi - lo), Payload: payload[lo:hi],
		})
	}

	// The buffers after the round: each node's kept blocks, then the
	// blocks it received.
	w = 0
	for v := 0; v < n; v++ {
		r.nextOff[v] = int32(w)
		w += copy(r.next[w:], r.ids[r.off[v]:r.off[v]+r.keep[v]])
		if s := r.from[v]; s >= 0 {
			w += copy(r.next[w:], r.taken[r.takenOff[s]:r.takenOff[s+1]])
		}
	}
	r.nextOff[n] = int32(w)
	r.ids, r.next = r.next, r.ids
	r.off, r.nextOff = r.nextOff, r.off
	return st
}

package oracle

import (
	"sync"

	"torusx/internal/block"
	"torusx/internal/plan"
	"torusx/internal/topology"
)

// RunSPMD executes the Suh–Shin exchange as a truly concurrent SPMD
// program: one goroutine per torus node, one buffered channel per node
// modelling its single consumption port (the one-port model), and a
// cyclic barrier marking step boundaries.
//
// Unlike the lock-step simulator (Run), no goroutine reads any other
// node's buffer: each node decides what to send, when to send, and
// whether a message will arrive purely from its own coordinates and
// the algorithm's rules — exactly the information an SPMD process on a
// real torus machine would have. Intermediate nodes do not participate
// in forwarding because wormhole routing moves flits through router
// hardware without involving the processors; link-level contention is
// a schedule property already validated by Check.
//
// It demonstrates that the published schedule is executable under
// asynchronous message passing with bounded channel capacity and no
// central coordinator, and cross-checks the lock-step simulator: both
// must produce identical final buffers.

// message is one combined transfer between ring neighbours or
// exchange partners.
type message struct {
	blocks []block.Block
}

// barrier is a reusable cyclic barrier for n parties.
type barrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	n     int
	count int
	gen   int
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// wait blocks until all n parties have called wait for this generation.
func (b *barrier) wait() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.count++
	if b.count == b.n {
		b.count = 0
		b.gen++
		b.cond.Broadcast()
		return
	}
	gen := b.gen
	for b.gen == gen {
		b.cond.Wait()
	}
}

// SPMDResult is the outcome of a concurrent run.
type SPMDResult struct {
	Torus   *topology.Torus
	Buffers []*Buffer
	// MessagesSent counts point-to-point messages actually injected
	// (empty idle steps send nothing).
	MessagesSent int
}

// RunSPMD executes the complete exchange concurrently and returns the
// final buffers. The torus must satisfy the same preconditions as Run.
func RunSPMD(t *topology.Torus) (*SPMDResult, error) {
	if err := t.ValidateForExchange(); err != nil {
		return nil, err
	}
	n := t.Nodes()
	bufs := Initial(t)
	inbox := make([]chan message, n)
	for i := range inbox {
		inbox[i] = make(chan message, 1) // one consumption port
	}
	bar := newBarrier(n)
	sent := make([]int, n)
	// Read-only coordinate table shared by all goroutines: node i's
	// coordinates. Lookup replaces repeated CoordOf allocation in the
	// per-block predicates.
	coords := make([]topology.Coord, n)
	for i := range coords {
		coords[i] = t.CoordOf(topology.NodeID(i))
	}

	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(id int) {
			defer wg.Done()
			node := &spmdNode{
				t:      t,
				id:     topology.NodeID(id),
				self:   coords[id],
				coords: coords,
				buf:    bufs[id],
				inbox:  inbox,
				bar:    bar,
			}
			node.run()
			sent[id] = node.sent
		}(i)
	}
	wg.Wait()

	res := &SPMDResult{Torus: t, Buffers: bufs}
	for _, s := range sent {
		res.MessagesSent += s
	}
	return res, nil
}

// spmdNode is the per-goroutine state: everything a node can know
// locally.
type spmdNode struct {
	t      *topology.Torus
	id     topology.NodeID
	self   topology.Coord
	coords []topology.Coord // shared read-only coordinate table
	buf    *Buffer
	inbox  []chan message
	bar    *barrier
	sent   int
}

func (nd *spmdNode) run() {
	n := nd.t.NDims()
	moves := plan.GroupPhases(nd.self)
	globalSteps := nd.t.Dim(0)/topology.GroupStride - 1

	for p := 0; p < n; p++ {
		m := moves[p]
		nd.buf.SortByKey(func(b block.Block) int {
			return groupRemaining(nd.t, nd.self, nd.coords[b.Dest], m)
		})
		ringLen := nd.t.Dim(m.Dim) / topology.GroupStride
		dest := nd.t.MoveID(nd.id, m.Dim, topology.GroupStride*int(m.Dir))
		for s := 1; s <= globalSteps; s++ {
			active := s <= ringLen-1
			nd.step(active, dest, func(b block.Block) bool {
				return groupRemaining(nd.t, nd.self, nd.coords[b.Dest], m) > 0
			})
		}
	}

	nd.buf.SortByKey(quadKey(nd.self, nd.coords))
	for s := 1; s <= n; s++ {
		m := plan.QuadMove(nd.self, s)
		dest := nd.t.MoveID(nd.id, m.Dim, 2*int(m.Dir))
		nd.step(true, dest, func(b block.Block) bool {
			return quadBitDiff(nd.self, nd.coords[b.Dest], m.Dim) == 1
		})
	}

	nd.buf.SortByKey(bitKey(nd.self, nd.coords))
	for s := 1; s <= n; s++ {
		m := plan.BitMove(nd.self, s)
		dest := nd.t.MoveID(nd.id, m.Dim, int(m.Dir))
		nd.step(true, dest, func(b block.Block) bool {
			return lowBitDiff(nd.self, nd.coords[b.Dest], m.Dim) == 1
		})
	}
}

// step performs one synchronous step: extract-and-send, then receive
// (when active), then barrier. The partner's activity mirrors ours by
// symmetry — the ring predecessor shares our ring length in group
// phases, and quad/bit partners are always active.
func (nd *spmdNode) step(active bool, dest topology.NodeID, pred func(block.Block) bool) {
	if active {
		taken, pos, _ := nd.buf.TakeIfAt(pred)
		nd.inbox[dest] <- message{blocks: taken}
		nd.sent++
		msg := <-nd.inbox[nd.id]
		if pos > nd.buf.Len() {
			pos = nd.buf.Len()
		}
		nd.buf.InsertAt(pos, msg.blocks)
	}
	nd.bar.wait()
}

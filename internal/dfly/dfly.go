// Package dfly builds all-to-all exchange schedules on the swapped
// dragonfly fabric (topology.Dragonfly), the second fabric behind the
// topology.Fabric seam. Two emitters mirror the torus baselines:
//
//   - EmitDirect is the dragonfly twin of the torus Direct
//     baseline: N-1 id-shift steps, every node sending straight to its
//     step-k partner along the minimal local–global–local route, with
//     link time-sharing declared and priced rather than avoided;
//   - EmitDimExchange is the dimension-ordered (port-ordered)
//     exchange of any traffic matrix: a local scatter phase
//     positioning every block on the entry router wired to its
//     destination group, one global phase, and a local delivery phase
//     — contention-free and one-port compliant by construction,
//     2(M-1)+K² steps in total.
//
// Both emit full payload annotations into a schedule.Sink, so the
// shared executor replays and delivery-verifies them exactly as it
// does the torus algorithms.
package dfly

import (
	"fmt"

	"torusx/internal/block"
	"torusx/internal/schedule"
	"torusx/internal/topology"
)

// routeSegs converts a dragonfly route to schedule segments (one
// Hops=1 leg per port traversal) and fills the transfer's first-leg
// fields, matching the IR convention that Segs is nil for single-leg
// routes.
func routeSegs(tr *schedule.Transfer, route []topology.Hop) {
	tr.Dim, tr.Dir, tr.Hops = route[0].Dim, route[0].Dir, 1
	if len(route) == 1 {
		return
	}
	tr.Segs = make([]schedule.Seg, len(route))
	for i, h := range route {
		tr.Segs[i] = schedule.Seg{Dim: h.Dim, Dir: h.Dir, Hops: 1}
	}
}

// EmitDirect emits the direct (id-shift) exchange on d into sink: step
// k of N-1 sends node i's block for node (i+k) mod N along the minimal
// route. Distinct pairs share local and global channels within a step,
// so every step declares Shared and the executor charges the
// serialization factor, exactly like the torus Direct baseline.
func EmitDirect(d *topology.Dragonfly, sink schedule.Sink) error {
	n := d.Nodes()
	sink.Phase("direct", 0)
	for k := 1; k < n; k++ {
		step := schedule.Step{Shared: true, Transfers: make([]schedule.Transfer, 0, n)}
		for i := 0; i < n; i++ {
			src := topology.NodeID(i)
			dst := topology.NodeID((i + k) % n)
			tr := schedule.Transfer{
				Src: src, Dst: dst, Blocks: 1,
				Payload: []int32{block.Block{Origin: src, Dest: dst}.ID(n)},
			}
			routeSegs(&tr, d.Route(src, dst))
			step.Transfers = append(step.Transfers, tr)
		}
		if err := sink.Step(step); err != nil {
			return err
		}
	}
	return nil
}

// entryRouter returns the router of group g a block destined to dst
// must reach before (or instead of) its global hop: the destination
// router for same-group traffic, otherwise the one router of g wired
// to the destination group (dg mod M).
func entryRouter(d *topology.Dragonfly, g int, dst topology.NodeID) int {
	if d.Group(dst) == g {
		return d.Router(dst)
	}
	return d.Group(dst) % d.M()
}

// EmitDimExchange emits the port-ordered exchange of an arbitrary
// traffic matrix on d into sink, each step as soon as it is built, in
// three phases:
//
//  1. "local-scatter" (M-1 steps): step o shifts, within every group,
//     from router r to router (r+o) mod M — carrying same-group blocks
//     straight to their destination router and foreign-group blocks to
//     the entry router wired to their destination group (dg mod M);
//  2. "global" (K² steps): step (k, j) lets every router of the groups
//     in class j (⌊g/M⌋ = j) fire global port k, moving all held
//     blocks destined to group kM + r. The swapped rule lands them on
//     router g mod M of that group, and for fixed (k, j) the landing
//     nodes are distinct, so the step is one-port compliant;
//  3. "local-deliver" (M-1 steps): the mirror local shifts carry every
//     block from its landing router to its destination router.
//
// Every step is contention-free (each transfer occupies exactly the
// sender's own out-channel) and one-port compliant by construction,
// which exec.Compile checks when the registry compiles the schedule;
// the builder replays the block movement while emitting, so every
// transfer carries its exact payload. Traffic must be duplicate-free
// and in range; the registry passes the full matrix in origin-major
// order.
func EmitDimExchange(d *topology.Dragonfly, traffic []block.Block, sink schedule.Sink) error {
	n, m, k := d.Nodes(), d.M(), d.K()
	bufs := make([][]block.Block, n)
	seen := make(map[block.Block]bool, len(traffic))
	for _, b := range traffic {
		if int(b.Origin) < 0 || int(b.Origin) >= n || int(b.Dest) < 0 || int(b.Dest) >= n {
			return fmt.Errorf("dfly: traffic block %v out of range for %d nodes", b, n)
		}
		if seen[b] {
			return fmt.Errorf("dfly: duplicate traffic block %v", b)
		}
		seen[b] = true
		bufs[b.Origin] = append(bufs[b.Origin], b)
	}

	// moveStep builds one step from a per-node selector: node i sends
	// every held block pick returns true for to dst(i), as one combined
	// transfer over the route's segments. Selected blocks move before
	// the next step is formed (synchronous-step semantics: selectors
	// only look at blocks held when the step began).
	moveStep := func(dst func(i int) topology.NodeID, pick func(i int, b block.Block) bool) schedule.Step {
		var step schedule.Step
		type move struct {
			to      topology.NodeID
			payload []block.Block
		}
		moves := make([]move, 0, n)
		for i := 0; i < n; i++ {
			to := dst(i)
			if to == topology.NodeID(i) {
				continue
			}
			var keep, send []block.Block
			for _, b := range bufs[i] {
				if pick(i, b) {
					send = append(send, b)
				} else {
					keep = append(keep, b)
				}
			}
			if len(send) == 0 {
				continue
			}
			bufs[i] = keep
			moves = append(moves, move{to: to, payload: send})
			tr := schedule.Transfer{
				Src: topology.NodeID(i), Dst: to,
				Blocks: len(send), Payload: block.IDs(send, n),
			}
			routeSegs(&tr, d.Route(topology.NodeID(i), to))
			step.Transfers = append(step.Transfers, tr)
		}
		for _, mv := range moves {
			bufs[mv.to] = append(bufs[mv.to], mv.payload...)
		}
		return step
	}

	// shift returns the local-shift step's destination rule for offset o.
	shift := func(o int) func(i int) topology.NodeID {
		return func(i int) topology.NodeID {
			g, r := d.Group(topology.NodeID(i)), d.Router(topology.NodeID(i))
			return d.ID(g, (r+o)%m)
		}
	}

	// Phase 1: local scatter to entry (or destination) routers.
	if m > 1 {
		sink.Phase("local-scatter", 0)
	}
	for o := 1; o < m; o++ {
		err := sink.Step(moveStep(shift(o), func(i int, b block.Block) bool {
			g, r := d.Group(topology.NodeID(i)), d.Router(topology.NodeID(i))
			return entryRouter(d, g, b.Dest) == (r+o)%m
		}))
		if err != nil {
			return err
		}
	}

	// Phase 2: global exchange, one (port, group-class) pair per step.
	sink.Phase("global", 0)
	for kp := 0; kp < k; kp++ {
		for j := 0; j < k; j++ {
			err := sink.Step(moveStep(
				func(i int) topology.NodeID {
					g, r := d.Group(topology.NodeID(i)), d.Router(topology.NodeID(i))
					tg := kp*m + r
					if g/m != j || tg == g {
						return topology.NodeID(i) // not this class, or self-port
					}
					return d.ID(tg, g%m)
				},
				func(i int, b block.Block) bool {
					r := d.Router(topology.NodeID(i))
					return d.Group(b.Dest) == kp*m+r
				}))
			if err != nil {
				return err
			}
		}
	}

	// Phase 3: local delivery within the destination groups.
	if m > 1 {
		sink.Phase("local-deliver", 0)
	}
	for o := 1; o < m; o++ {
		err := sink.Step(moveStep(shift(o), func(i int, b block.Block) bool {
			g, r := d.Group(topology.NodeID(i)), d.Router(topology.NodeID(i))
			return d.Group(b.Dest) == g && d.Router(b.Dest) == (r+o)%m
		}))
		if err != nil {
			return err
		}
	}

	// Every block must now sit at its destination; a miss here is a
	// builder bug, reported eagerly rather than left to the executor.
	for i := 0; i < n; i++ {
		for _, b := range bufs[i] {
			if int(b.Dest) != i {
				return fmt.Errorf("dfly: block %v stranded at node %d after port-ordered exchange", b, i)
			}
		}
	}
	return nil
}

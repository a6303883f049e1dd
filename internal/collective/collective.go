// Package collective builds the rest of the collective-communication
// suite on the same torus substrate as the all-to-all exchange. The
// paper situates all-to-all personalized exchange among the collective
// operations of wormhole-routed machines [4, 6]; a library a user
// would adopt for torus collectives needs the siblings too:
//
//   - Broadcast: one block replicated to all nodes, by bidirectional
//     pipelined flooding one dimension at a time (works for any ring
//     size, one-port compliant, contention-free).
//   - AllGather (all-to-all broadcast): every node's block replicated
//     to all nodes, by the classic ring algorithm per dimension.
//   - the ring reduce-scatter and the Swing allreduce, which combine
//     values in flight (reduce.go, swing.go).
//
// The replication builders check that every node ends with every
// block it should hold. The reductions' emitters count each step's
// blocks from the chain and peer rules and hold no values; their tests
// hold them step by step to value reductions that sum real
// contributions. All of them emit structural schedules and none checks
// or measures a step: the algorithm registry
// (internal/algorithm) compiles each one, as the "broadcast",
// "allgather", "reducescatter" and "swing" cells, and exec.Compile
// checks every step and derives the cost. The personalized siblings,
// Scatter and Gather, are sparse cases of the exchange itself and run
// through torusx's sparse path.
package collective

import (
	"fmt"

	"torusx/internal/schedule"
	"torusx/internal/topology"
)

// BroadcastSchedule emits the pipelined bidirectional-flood broadcast
// schedule from root: one dimension at a time, the holders flood their
// ring in both directions in pipelined steps (each node injects at
// most one message per step and each unidirectional link carries at
// most one). Replication collectives copy blocks rather than move
// them, so the schedule carries no payloads; the shared executor
// checks and measures it structurally. It returns an error if the
// flood misses a node.
func BroadcastSchedule(t *topology.Torus, root topology.NodeID) (*schedule.Schedule, error) {
	sc, _, err := broadcastSchedule(t, root)
	return sc, err
}

func broadcastSchedule(t *topology.Torus, root topology.NodeID) (*schedule.Schedule, []bool, error) {
	n := t.Nodes()
	if int(root) < 0 || int(root) >= n {
		return nil, nil, fmt.Errorf("collective: root %d out of range", root)
	}
	have := make([]bool, n)
	have[root] = true
	sc := &schedule.Schedule{Fabric: t}

	for dim := 0; dim < t.NDims(); dim++ {
		ph := schedule.Phase{Name: fmt.Sprintf("bcast-dim%d", dim)}
		// Pipelined bidirectional flood: in each step every holder
		// forwards to one neighbour that still lacks the block,
		// alternating sides between steps so a lone holder feeds both
		// pipeline directions; a ring of size a floods in about a/2+1
		// steps.
		for sweep := 0; ; sweep++ {
			var step schedule.Step
			next := make([]bool, n)
			copy(next, have)
			for i := 0; i < n; i++ {
				if !have[i] {
					continue
				}
				// Prefer the direction matching the sweep parity so a
				// lone holder pipes both ways on alternating steps.
				dirs := []topology.Direction{topology.Pos, topology.Neg}
				if sweep%2 == 1 {
					dirs[0], dirs[1] = dirs[1], dirs[0]
				}
				for _, dir := range dirs {
					j := t.MoveID(topology.NodeID(i), dim, int(dir))
					if have[j] || next[j] {
						continue
					}
					next[j] = true
					step.Transfers = append(step.Transfers, schedule.Transfer{
						Src: topology.NodeID(i), Dst: j,
						Dim: dim, Dir: dir, Hops: 1, Blocks: 1,
					})
					break // one-port: one send per node per step
				}
			}
			if len(step.Transfers) == 0 {
				break
			}
			copy(have, next)
			ph.Steps = append(ph.Steps, step)
		}
		sc.Phases = append(sc.Phases, ph)
	}
	for i, h := range have {
		if !h {
			return nil, nil, fmt.Errorf("collective: node %d missed the broadcast", i)
		}
	}
	return sc, have, nil
}

// AllGatherSchedule emits the ring all-gather schedule: for each
// dimension, a−1 pipelined steps in which every node forwards to its
// +1 neighbour the set it received in the previous step (initially its
// own accumulated set), so after the phase every node of a ring holds
// the union of the ring. Replication schedules carry no payloads. It
// returns an error unless every node ends with every node's block
// exactly once.
func AllGatherSchedule(t *topology.Torus) (*schedule.Schedule, error) {
	sc, _, err := allGatherSchedule(t)
	return sc, err
}

func allGatherSchedule(t *topology.Torus) (*schedule.Schedule, [][]topology.NodeID, error) {
	n := t.Nodes()
	have := make([][]topology.NodeID, n)
	for i := range have {
		have[i] = []topology.NodeID{topology.NodeID(i)}
	}
	sc := &schedule.Schedule{Fabric: t}

	for dim := 0; dim < t.NDims(); dim++ {
		size := t.Dim(dim)
		if size == 1 {
			continue
		}
		ph := schedule.Phase{Name: fmt.Sprintf("allgather-dim%d", dim)}
		// carry[i] is what node i forwards next (pipelining: pass on
		// what arrived last step).
		carry := make([][]topology.NodeID, n)
		for i := range carry {
			carry[i] = append([]topology.NodeID(nil), have[i]...)
		}
		for s := 1; s <= size-1; s++ {
			var step schedule.Step
			incoming := make([][]topology.NodeID, n)
			for i := 0; i < n; i++ {
				j := t.MoveID(topology.NodeID(i), dim, 1)
				incoming[j] = carry[i]
				step.Transfers = append(step.Transfers, schedule.Transfer{
					Src: topology.NodeID(i), Dst: j,
					Dim: dim, Dir: topology.Pos, Hops: 1, Blocks: len(carry[i]),
				})
			}
			for i := 0; i < n; i++ {
				have[i] = append(have[i], incoming[i]...)
				carry[i] = incoming[i]
			}
			ph.Steps = append(ph.Steps, step)
		}
		sc.Phases = append(sc.Phases, ph)
	}
	origins := make([]topology.NodeID, n)
	for i := range origins {
		origins[i] = topology.NodeID(i)
	}
	if err := verifyReplication(t, have, origins); err != nil {
		return nil, nil, err
	}
	return sc, have, nil
}

// verifyReplication checks that every node ends with exactly one block
// from every origin in origins.
func verifyReplication(t *topology.Torus, have [][]topology.NodeID, origins []topology.NodeID) error {
	n := t.Nodes()
	want := make([]bool, n)
	for _, o := range origins {
		want[o] = true
	}
	seen := make([]int, n) // seen[o] == i+1 once node i holds origin o

	for i, hs := range have {
		for _, o := range hs {
			if int(o) < 0 || int(o) >= n || !want[o] {
				return fmt.Errorf("collective: node %d holds unexpected origin %d", i, o)
			}
			if seen[o] == i+1 {
				return fmt.Errorf("collective: node %d holds origin %d twice", i, o)
			}
			seen[o] = i + 1
		}
		if len(hs) != len(origins) {
			return fmt.Errorf("collective: node %d holds %d origins, want %d", i, len(hs), len(origins))
		}
	}
	return nil
}

// Package collective builds the rest of the collective-communication
// suite on the same torus substrate as the all-to-all exchange. The
// paper situates all-to-all personalized exchange among the collective
// operations of wormhole-routed machines [4, 6]; a library a user
// would adopt for torus collectives needs the siblings too:
//
//   - EmitBroadcast: one block replicated to all nodes, by bidirectional
//     pipelined flooding one dimension at a time (works for any ring
//     size, one-port compliant, contention-free).
//   - EmitAllGather (all-to-all broadcast): every node's block replicated
//     to all nodes, by the classic ring algorithm per dimension.
//   - EmitReduceScatter and EmitSwing, the ring reduce-scatter and the
//     Swing allreduce, which combine values in flight (reduce.go,
//     swing.go).
//
// Every builder is an emitter into a schedule.Sink, and each step goes
// out as soon as it is built. The broadcast floods one holder flag per
// node and checks that the flood reaches every node. The allgather
// and the reductions count each step's blocks from the torus shape
// and the chain and peer rules, holding no block lists or values;
// their tests hold them step by step to references that replicate real
// origins and sum real contributions. All of them emit structural
// schedules and none checks or measures a step: the algorithm registry
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

// EmitBroadcast emits the pipelined bidirectional-flood broadcast from
// root into sink: one dimension at a time, the holders flood their
// ring in both directions in pipelined steps (each node injects at
// most one message per step and each unidirectional link carries at
// most one). Replication collectives copy blocks rather than move
// them, so the schedule carries no payloads; the shared executor
// checks and measures it structurally. The builder keeps one holder
// flag per node, and returns an error if root is out of range or the
// flood misses a node.
func EmitBroadcast(t *topology.Torus, root topology.NodeID, sink schedule.Sink) error {
	n := t.Nodes()
	if int(root) < 0 || int(root) >= n {
		return fmt.Errorf("collective: root %d out of range", root)
	}
	have, next := make([]bool, n), make([]bool, n)
	have[root] = true

	for dim := 0; dim < t.NDims(); dim++ {
		sink.Phase(fmt.Sprintf("bcast-dim%d", dim), 0)
		// Pipelined bidirectional flood: in each step every holder
		// forwards to one neighbour that still lacks the block,
		// alternating sides between steps so a lone holder feeds both
		// pipeline directions; a ring of size a floods in about a/2+1
		// steps.
		for sweep := 0; ; sweep++ {
			var step schedule.Step
			copy(next, have)
			// Prefer the direction matching the sweep parity so a lone
			// holder pipes both ways on alternating steps.
			first := topology.Pos
			if sweep%2 == 1 {
				first = topology.Neg
			}
			for i := 0; i < n; i++ {
				if !have[i] {
					continue
				}
				for _, dir := range [2]topology.Direction{first, -first} {
					j := t.Advance(topology.NodeID(i), dim, dir, 1)
					if next[j] {
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
			have, next = next, have
			if err := sink.Step(step); err != nil {
				return err
			}
		}
	}
	for i, h := range have {
		if !h {
			return fmt.Errorf("collective: node %d missed the broadcast", i)
		}
	}
	return nil
}

// EmitAllGather emits the ring all-gather into sink: for each
// dimension of size a > 1, a−1 pipelined steps in which every node
// forwards to its +1 neighbour the set it received in the previous
// step (initially its own accumulated set), so after the phase every
// node of a ring holds the union of the ring. Entering dimension d a
// node holds the blocks of the nodes that agree with it on dimensions
// d and above, so every step of dimension d moves P(<d) blocks per
// node, P(<d) being the product of the sizes of the dimensions before
// d. Replication schedules carry no payloads. The emitter counts from
// the shape and holds no origin lists; its tests hold it step by step
// to a reference that replicates every node's origins.
func EmitAllGather(t *topology.Torus, sink schedule.Sink) error {
	held := 1
	for dim := 0; dim < t.NDims(); dim++ {
		a := t.Dim(dim)
		if a == 1 {
			continue
		}
		sink.Phase(fmt.Sprintf("allgather-dim%d", dim), 0)
		for s := 1; s < a; s++ {
			if err := sink.Step(ringStep(t, dim, held, unitLeg)); err != nil {
				return err
			}
		}
		held *= a
	}
	return nil
}

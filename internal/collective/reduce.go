package collective

import (
	"fmt"

	"torusx/internal/schedule"
	"torusx/internal/topology"
)

// Reduction collectives. Unlike the movement collectives, these
// combine values in flight: every node contributes a vector with one
// slot per result owner, and the network sums contributions.
//
// The ring reduce-scatter runs per dimension: chunk j (the slots owned
// by nodes whose coordinate along the ring equals j) starts at node
// j+1 and travels +1 each step, accumulating each visited node's
// contribution, arriving complete at its owner after a−1 steps.
// Dimension-ordered application reduces over the whole torus. The
// ring allreduce (torusx.AllReduce) is the reduce-scatter followed by
// the allgather program.
//
// Neither reduction needs values to emit its steps: which slots a node
// sends follows from the chain and peer rules alone, so the emitters
// count each step's blocks from the torus shape.

// EmitReduceScatter emits the ring reduce-scatter into sink: a−1
// distance-1 steps per dimension of size a, in which every node sends
// its partial sums of one chunk to its +1 neighbour. Entering
// dimension d a node holds the slots that agree with it on dimensions
// 0 through d−1, so a chunk is n / P(≤d) slots, P(≤d) being the
// product of the sizes of dimensions 0 through d, and every step of
// dimension d moves that many blocks per node.
func EmitReduceScatter(t *topology.Torus, sink schedule.Sink) error {
	for dim := 0; dim < t.NDims(); dim++ {
		a := t.Dim(dim)
		if a == 1 {
			continue
		}
		sink.Phase(fmt.Sprintf("reducescatter-dim%d", dim), 0)
		for s := 1; s < a; s++ {
			if err := sink.Step(ringStep(t, dim, stride(t, dim), unitLeg)); err != nil {
				return err
			}
		}
	}
	return nil
}

// stride returns the node-id distance between neighbours along dim,
// the product of the sizes of the dimensions above it: n / P(≤dim).
func stride(t *topology.Torus, dim int) int {
	s := 1
	for d := dim + 1; d < t.NDims(); d++ {
		s *= t.Dim(d)
	}
	return s
}

// unitLeg is the leg of a ring step in which every node sends to its
// +1 neighbour.
func unitLeg(int) (topology.Direction, int) { return topology.Pos, 1 }

// ringStep returns the step in which every node, in id order, sends
// blocks blocks along dim by the leg leg gives for its coordinate
// there. A step with a leg longer than one hop declares Shared.
func ringStep(t *topology.Torus, dim, blocks int, leg func(x int) (topology.Direction, int)) schedule.Step {
	a, st := t.Dim(dim), stride(t, dim)
	step := schedule.Step{Transfers: make([]schedule.Transfer, t.Nodes())}
	for i := range step.Transfers {
		src := topology.NodeID(i)
		dir, hops := leg(i / st % a)
		step.Transfers[i] = schedule.Transfer{
			Src: src, Dst: t.Advance(src, dim, dir, hops),
			Dim: dim, Dir: dir, Hops: hops, Blocks: blocks,
		}
		step.Shared = step.Shared || hops > 1
	}
	return step
}

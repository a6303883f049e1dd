package exchange

import (
	"fmt"

	"torusx/internal/plan"
	"torusx/internal/schedule"
	"torusx/internal/topology"
)

// Structural schedule generation. The block counts of every step of
// the Suh–Shin schedule are fully determined by symmetry: a node whose
// phase-p ring has L members sends (L−s)·N/L blocks in step s, and
// every node sends N/2 blocks in each quad/bit step. EmitStructural
// builds the complete schedule from those closed forms without
// simulating any buffers, in O(steps · nodes) time and O(1) memory per
// node — which makes contention checking feasible for tori far beyond
// what the block-level simulator can hold (a 64×64 torus has 16.7M
// blocks but only ~34 structural steps of 4096 transfers).
//
// TestStructuralMatchesSimulated asserts transfer-for-transfer
// equality with the executed schedule on every small shape.

// EmitStructural emits the schedule of the proposed algorithm on t
// into sink, each step as soon as it is built, without executing it.
// It declares no lattice.
func EmitStructural(t *topology.Torus, sink schedule.Sink) error {
	if err := t.ValidateForExchange(); err != nil {
		return err
	}
	n := t.Nodes()
	nd := t.NDims()
	coords := make([]topology.Coord, n)
	groups := make([][]plan.Move, n)
	for i := 0; i < n; i++ {
		coords[i] = t.CoordOf(topology.NodeID(i))
		groups[i] = plan.GroupPhases(coords[i])
	}

	globalSteps := t.Dim(0)/topology.GroupStride - 1
	for p := 0; p < nd; p++ {
		// Every inter-phase boundary rearranges all N blocks per node
		// (same annotation the simulating executor records).
		rearrange := 0
		if p > 0 {
			rearrange = n
		}
		sink.Phase(fmt.Sprintf("group-%d", p+1), rearrange)
		for s := 1; s <= globalSteps; s++ {
			var step schedule.Step
			for i := 0; i < n; i++ {
				m := groups[i][p]
				ringLen := t.Dim(m.Dim) / topology.GroupStride
				if s > ringLen-1 {
					continue
				}
				blocks := (ringLen - s) * (n / ringLen)
				dst := t.MoveID(topology.NodeID(i), m.Dim, topology.GroupStride*int(m.Dir))
				step.Transfers = append(step.Transfers, schedule.Transfer{
					Src: topology.NodeID(i), Dst: dst,
					Dim: m.Dim, Dir: m.Dir, Hops: topology.GroupStride, Blocks: blocks,
				})
			}
			if err := sink.Step(step); err != nil {
				return err
			}
		}
	}

	// pairPhase emits the quad or bit phase: nd steps in which every
	// node sends N/2 blocks hops away along the move of its step.
	pairPhase := func(name string, hops int, move func(topology.Coord, int) plan.Move) error {
		sink.Phase(name, n)
		for s := 1; s <= nd; s++ {
			var step schedule.Step
			for i := 0; i < n; i++ {
				m := move(coords[i], s)
				dst := t.MoveID(topology.NodeID(i), m.Dim, hops*int(m.Dir))
				step.Transfers = append(step.Transfers, schedule.Transfer{
					Src: topology.NodeID(i), Dst: dst,
					Dim: m.Dim, Dir: m.Dir, Hops: hops, Blocks: n / 2,
				})
			}
			if err := sink.Step(step); err != nil {
				return err
			}
		}
		return nil
	}
	if err := pairPhase("quad", 2, plan.QuadMove); err != nil {
		return err
	}
	return pairPhase("bit", 1, plan.BitMove)
}

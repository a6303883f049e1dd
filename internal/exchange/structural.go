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
// every node sends N/2 blocks in each quad/bit step. GenerateStructural
// builds the complete schedule from those closed forms without
// simulating any buffers, in O(steps · nodes) time and O(1) memory per
// node — which makes contention checking feasible for tori far beyond
// what the block-level simulator can hold (a 64×64 torus has 16.7M
// blocks but only ~34 structural steps of 4096 transfers).
//
// TestStructuralMatchesSimulated asserts transfer-for-transfer
// equality with the executed schedule on every small shape.

// GenerateStructural returns the schedule of the proposed algorithm on
// t without executing it.
func GenerateStructural(t *topology.Torus) (*schedule.Schedule, error) {
	if err := t.ValidateForExchange(); err != nil {
		return nil, err
	}
	n := t.Nodes()
	nd := t.NDims()
	coords := make([]topology.Coord, n)
	groups := make([][]plan.Move, n)
	for i := 0; i < n; i++ {
		coords[i] = t.CoordOf(topology.NodeID(i))
		groups[i] = plan.GroupPhases(coords[i])
	}
	sc := &schedule.Schedule{Fabric: t}

	globalSteps := t.Dim(0)/topology.GroupStride - 1
	for p := 0; p < nd; p++ {
		ph := schedule.Phase{Name: fmt.Sprintf("group-%d", p+1)}
		if p > 0 {
			// Every inter-phase boundary rearranges all N blocks per
			// node (same annotation the simulating executor records).
			ph.Rearrange = n
		}
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
			ph.Steps = append(ph.Steps, step)
		}
		sc.Phases = append(sc.Phases, ph)
	}

	quad := schedule.Phase{Name: "quad", Rearrange: n}
	for s := 1; s <= nd; s++ {
		var step schedule.Step
		for i := 0; i < n; i++ {
			m := plan.QuadMove(coords[i], s)
			dst := t.MoveID(topology.NodeID(i), m.Dim, 2*int(m.Dir))
			step.Transfers = append(step.Transfers, schedule.Transfer{
				Src: topology.NodeID(i), Dst: dst,
				Dim: m.Dim, Dir: m.Dir, Hops: 2, Blocks: n / 2,
			})
		}
		quad.Steps = append(quad.Steps, step)
	}
	sc.Phases = append(sc.Phases, quad)

	bit := schedule.Phase{Name: "bit", Rearrange: n}
	for s := 1; s <= nd; s++ {
		var step schedule.Step
		for i := 0; i < n; i++ {
			m := plan.BitMove(coords[i], s)
			dst := t.MoveID(topology.NodeID(i), m.Dim, int(m.Dir))
			step.Transfers = append(step.Transfers, schedule.Transfer{
				Src: topology.NodeID(i), Dst: dst,
				Dim: m.Dim, Dir: m.Dir, Hops: 1, Blocks: n / 2,
			})
		}
		bit.Steps = append(bit.Steps, step)
	}
	sc.Phases = append(sc.Phases, bit)

	return sc, nil
}

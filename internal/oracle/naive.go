package oracle

import (
	"fmt"

	"torusx/internal/plan"
	"torusx/internal/schedule"
	"torusx/internal/topology"
)

// GenerateNaive builds the A1-ablation schedule: the same n+2-phase
// structure as the proposed algorithm but WITHOUT the (r+c) mod 4
// direction split — every node scatters along dimension (phase index)
// in the positive direction. Block volumes per step are identical to
// the proposed schedule; only the link usage differs. The schedule is
// one-port compliant but deliberately not contention-free: stride-4
// worms of all four residue classes share ring links, which under
// wormhole switching serializes 4x or deadlocks outright (see
// internal/wormhole). Used only for measuring what the paper's
// direction assignment buys.
func GenerateNaive(t *topology.Torus) (*schedule.Schedule, error) {
	if err := t.ValidateForExchange(); err != nil {
		return nil, err
	}
	n := t.Nodes()
	nd := t.NDims()
	sc := &schedule.Schedule{Fabric: t}

	for p := 0; p < nd; p++ {
		ph := schedule.Phase{Name: fmt.Sprintf("naive-group-%d", p+1)}
		ringLen := t.Dim(p) / topology.GroupStride
		for s := 1; s <= ringLen-1; s++ {
			var step schedule.Step
			for i := 0; i < n; i++ {
				blocks := (ringLen - s) * (n / ringLen)
				dst := t.MoveID(topology.NodeID(i), p, topology.GroupStride)
				step.Transfers = append(step.Transfers, schedule.Transfer{
					Src: topology.NodeID(i), Dst: dst,
					Dim: p, Dir: topology.Pos, Hops: topology.GroupStride, Blocks: blocks,
				})
			}
			ph.Steps = append(ph.Steps, step)
		}
		sc.Phases = append(sc.Phases, ph)
	}

	// Quad and bit phases use the proposed per-node step orders (the
	// ablation isolates the group-phase direction split): without the
	// parity-based dimension interleave even the distance-2 exchanges
	// would collide, so keeping them clean attributes all measured
	// contention to the group phases.
	quad := schedule.Phase{Name: "naive-quad"}
	for s := 1; s <= nd; s++ {
		var step schedule.Step
		for i := 0; i < n; i++ {
			m := plan.QuadMove(t.CoordOf(topology.NodeID(i)), s)
			dst := t.MoveID(topology.NodeID(i), m.Dim, 2*int(m.Dir))
			step.Transfers = append(step.Transfers, schedule.Transfer{
				Src: topology.NodeID(i), Dst: dst,
				Dim: m.Dim, Dir: m.Dir, Hops: 2, Blocks: n / 2,
			})
		}
		quad.Steps = append(quad.Steps, step)
	}
	sc.Phases = append(sc.Phases, quad)

	bit := schedule.Phase{Name: "naive-bit"}
	for s := 1; s <= nd; s++ {
		var step schedule.Step
		for i := 0; i < n; i++ {
			m := plan.BitMove(t.CoordOf(topology.NodeID(i)), s)
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

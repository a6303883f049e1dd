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
// ReduceScatter uses the classic ring algorithm per dimension: chunk j
// (the slots owned by nodes whose coordinate along the ring equals j)
// starts at node j+1 and travels +1 each step, accumulating each
// visited node's contribution, arriving complete at its owner after
// a−1 steps. Dimension-ordered application reduces over the whole
// torus. The ring allreduce (torusx.AllReduce) is ReduceScatter
// followed by the allgather program.

// ReduceResult is the outcome of a reduction collective.
type ReduceResult struct {
	Torus *topology.Torus
	// Values[i] holds node i's final values: after ReduceScatter a
	// single slot (its own), after SwingAllReduce all N slots.
	Values [][]uint64
	// Owner[i] lists which slots Values[i] covers, in order.
	Owner [][]topology.NodeID
	// Schedule is the structural schedule.
	Schedule *schedule.Schedule
}

// ReduceScatter sums, across all nodes, each node's contribution
// vector contrib[i] (length N, slot j owned by node j); afterwards
// node i holds the single fully reduced slot i. Its cost is the
// registry's "reducescatter" program's Measure.
func ReduceScatter(t *topology.Torus, contrib [][]uint64) (*ReduceResult, error) {
	n := t.Nodes()
	if len(contrib) != n {
		return nil, fmt.Errorf("collective: %d contribution vectors for %d nodes", len(contrib), n)
	}
	for i, v := range contrib {
		if len(v) != n {
			return nil, fmt.Errorf("collective: node %d contributes %d slots, want %d", i, len(v), n)
		}
	}
	// partial[i][j] = node i's current partial sum for slot j; slots
	// not held are tracked by held[i][j].
	partial := make([][]uint64, n)
	held := make([][]bool, n)
	for i := 0; i < n; i++ {
		partial[i] = append([]uint64(nil), contrib[i]...)
		held[i] = make([]bool, n)
		for j := range held[i] {
			held[i][j] = true
		}
	}
	coords := make([]topology.Coord, n)
	for i := range coords {
		coords[i] = t.CoordOf(topology.NodeID(i))
	}
	res := &ReduceResult{Torus: t, Schedule: &schedule.Schedule{Fabric: t}}

	for dim := 0; dim < t.NDims(); dim++ {
		size := t.Dim(dim)
		if size == 1 {
			continue
		}
		ph := schedule.Phase{Name: fmt.Sprintf("reducescatter-dim%d", dim)}
		for s := 1; s <= size-1; s++ {
			var step schedule.Step
			type msg struct {
				dst   int
				slots []int
				sums  []uint64
			}
			var msgs []msg
			for i := 0; i < n; i++ {
				// Send the partials of the chunk whose dim-coordinate is
				// (own - s) mod size, restricted to slots still held.
				chunk := t.Wrap(dim, coords[i][dim]-s)
				var slots []int
				var sums []uint64
				for j := 0; j < n; j++ {
					if held[i][j] && coords[j][dim] == chunk {
						slots = append(slots, j)
						sums = append(sums, partial[i][j])
						held[i][j] = false
					}
				}
				if len(slots) == 0 {
					continue
				}
				dst := int(t.MoveID(topology.NodeID(i), dim, 1))
				msgs = append(msgs, msg{dst: dst, slots: slots, sums: sums})
				step.Transfers = append(step.Transfers, schedule.Transfer{
					Src: topology.NodeID(i), Dst: topology.NodeID(dst),
					Dim: dim, Dir: topology.Pos, Hops: 1, Blocks: len(slots),
				})
			}
			for _, m := range msgs {
				for k, j := range m.slots {
					partial[m.dst][j] += m.sums[k]
					held[m.dst][j] = true
				}
			}
			ph.Steps = append(ph.Steps, step)
		}
		res.Schedule.Phases = append(res.Schedule.Phases, ph)
	}

	res.Values = make([][]uint64, n)
	res.Owner = make([][]topology.NodeID, n)
	for i := 0; i < n; i++ {
		if !held[i][i] {
			return nil, fmt.Errorf("collective: node %d does not hold its own slot", i)
		}
		for j := 0; j < n; j++ {
			if held[i][j] && j != i {
				return nil, fmt.Errorf("collective: node %d still holds foreign slot %d", i, j)
			}
		}
		res.Values[i] = []uint64{partial[i][i]}
		res.Owner[i] = []topology.NodeID{topology.NodeID(i)}
	}
	return res, nil
}

// ReduceScatterSchedule is the registry adapter: it runs ReduceScatter
// on a synthetic contribution matrix, exercising every internal
// invariant check, and returns the structural schedule.
func ReduceScatterSchedule(t *topology.Torus) (*schedule.Schedule, error) {
	res, err := ReduceScatter(t, syntheticContrib(t.Nodes()))
	if err != nil {
		return nil, err
	}
	return res.Schedule, nil
}

// syntheticContrib is the registry adapters' contribution matrix:
// every slot of every node distinct.
func syntheticContrib(n int) [][]uint64 {
	contrib := make([][]uint64, n)
	for i := range contrib {
		contrib[i] = make([]uint64, n)
		for j := range contrib[i] {
			contrib[i][j] = uint64(i*n + j + 1)
		}
	}
	return contrib
}

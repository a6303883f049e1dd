package collective

import (
	"fmt"

	"torusx/internal/schedule"
	"torusx/internal/topology"
)

// The value reductions: ReduceScatter and SwingAllReduce move and sum
// real contributions slot by slot, recording the schedule they ran.
// They are the references EmitReduceScatter and EmitSwing are held to
// step by step (structure_test.go), and their values to the column
// sums.

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

// swingSets computes, for a ring of size a = 2^q, the held-coordinate
// sets T[s][x]: the ring coordinates whose slots node x still holds
// entering reduce-scatter step s. The recursion runs backward from the
// fixed point T[q][x] = {x}: at step s node x keeps T[s+1][x] and
// sends T[s+1][peer(x, s)], so T[s][x] = T[s+1][x] ⊎ T[s+1][peer].
// The construction verifies the union is disjoint and that T[0][x]
// covers the full ring — together these prove each step is an exact
// binary split and q steps suffice.
func swingSets(a, q int) ([][][]bool, error) {
	T := make([][][]bool, q+1)
	for s := range T {
		T[s] = make([][]bool, a)
		for x := range T[s] {
			T[s][x] = make([]bool, a)
		}
	}
	for x := 0; x < a; x++ {
		T[q][x][x] = true
	}
	for s := q - 1; s >= 0; s-- {
		for x := 0; x < a; x++ {
			p := swingPeer(x, s, a)
			for c := 0; c < a; c++ {
				if T[s+1][x][c] && T[s+1][p][c] {
					return nil, fmt.Errorf("collective: swing sets overlap at step %d, node %d, coord %d", s, x, c)
				}
				T[s][x][c] = T[s+1][x][c] || T[s+1][p][c]
			}
		}
	}
	for x := 0; x < a; x++ {
		for c := 0; c < a; c++ {
			if !T[0][x][c] {
				return nil, fmt.Errorf("collective: swing sets incomplete at node %d, coord %d", x, c)
			}
		}
	}
	return T, nil
}

// SwingAllReduce sums each node's contribution vector contrib[i]
// (length N, slot j owned by node j) across all nodes and leaves the
// complete reduced vector at every node, using the Swing pairing per
// dimension: a dimension-ordered reduce-scatter of log2(a) steps per
// dimension followed by the mirrored allgather. Every torus dimension
// must be a power of two. Steps whose exchange distance exceeds one
// hop declare Shared — the swung paths of same-parity nodes overlap,
// and the executor prices that serialization instead of rejecting it.
func SwingAllReduce(t *topology.Torus, contrib [][]uint64) (*ReduceResult, error) {
	n := t.Nodes()
	if len(contrib) != n {
		return nil, fmt.Errorf("collective: %d contribution vectors for %d nodes", len(contrib), n)
	}
	for i, v := range contrib {
		if len(v) != n {
			return nil, fmt.Errorf("collective: node %d contributes %d slots, want %d", i, len(v), n)
		}
	}
	qs := make([]int, t.NDims())
	for dim := 0; dim < t.NDims(); dim++ {
		a, q := t.Dim(dim), 0
		for 1<<q < a {
			q++
		}
		if 1<<q != a {
			return nil, fmt.Errorf("collective: swing requires power-of-two dimensions, got %d in dim %d", a, dim)
		}
		qs[dim] = q
	}

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

	// exchangeStep forms one synchronous pairing step along dim: node i
	// sends every held slot pick admits to its step-s peer, summing on
	// arrival (reduce=true) or copying (allgather). The peering is an
	// involution, so messages are collected first and applied after —
	// both directions of a pair see the pre-step state.
	exchangeStep := func(ph *schedule.Phase, dim, s int, reduce bool, pick func(i, j int) bool) error {
		a := t.Dim(dim)
		var step schedule.Step
		type msg struct {
			dst   int
			slots []int
			sums  []uint64
		}
		var msgs []msg
		for i := 0; i < n; i++ {
			var slots []int
			var sums []uint64
			for j := 0; j < n; j++ {
				if held[i][j] && pick(i, j) {
					slots = append(slots, j)
					sums = append(sums, partial[i][j])
					if reduce {
						held[i][j] = false
					}
				}
			}
			if len(slots) == 0 {
				continue
			}
			dir, hops := swingLeg(coords[i][dim], s, a)
			dst := int(t.MoveID(topology.NodeID(i), dim, int(dir)*hops))
			msgs = append(msgs, msg{dst: dst, slots: slots, sums: sums})
			step.Transfers = append(step.Transfers, schedule.Transfer{
				Src: topology.NodeID(i), Dst: topology.NodeID(dst),
				Dim: dim, Dir: dir, Hops: hops, Blocks: len(slots),
			})
			step.Shared = step.Shared || hops > 1
		}
		for _, m := range msgs {
			for k, j := range m.slots {
				if reduce {
					partial[m.dst][j] += m.sums[k]
					held[m.dst][j] = true
				} else {
					if held[m.dst][j] {
						return fmt.Errorf("collective: swing allgather delivered slot %d to node %d twice", j, m.dst)
					}
					partial[m.dst][j] = m.sums[k]
					held[m.dst][j] = true
				}
			}
		}
		ph.Steps = append(ph.Steps, step)
		return nil
	}

	// Reduce-scatter: dimension-ordered, q swung steps per dimension. At
	// step s node x keeps the slots in T[s+1][x] and ships its partials
	// for T[s+1][peer], halving the held set.
	for dim := 0; dim < t.NDims(); dim++ {
		a, q := t.Dim(dim), qs[dim]
		if a == 1 {
			continue
		}
		T, err := swingSets(a, q)
		if err != nil {
			return nil, err
		}
		ph := schedule.Phase{Name: fmt.Sprintf("swing-rs-dim%d", dim)}
		for s := 0; s < q; s++ {
			err := exchangeStep(&ph, dim, s, true, func(i, j int) bool {
				p := swingPeer(coords[i][dim], s, a)
				return T[s+1][p][coords[j][dim]]
			})
			if err != nil {
				return nil, err
			}
		}
		res.Schedule.Phases = append(res.Schedule.Phases, ph)
	}

	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if held[i][j] != (i == j) {
				return nil, fmt.Errorf("collective: swing reduce-scatter left node %d holding the wrong slots", i)
			}
		}
	}

	// Allgather: the mirror image — dimensions and steps in reverse,
	// node x shipping (copies of) every reduced slot in T[s+1][x] to the
	// same peer, doubling the held set back up to the full ring.
	for dim := t.NDims() - 1; dim >= 0; dim-- {
		a, q := t.Dim(dim), qs[dim]
		if a == 1 {
			continue
		}
		T, err := swingSets(a, q)
		if err != nil {
			return nil, err
		}
		ph := schedule.Phase{Name: fmt.Sprintf("swing-ag-dim%d", dim)}
		for s := q - 1; s >= 0; s-- {
			err := exchangeStep(&ph, dim, s, false, func(i, j int) bool {
				return T[s+1][coords[i][dim]][coords[j][dim]]
			})
			if err != nil {
				return nil, err
			}
		}
		res.Schedule.Phases = append(res.Schedule.Phases, ph)
	}

	res.Values = make([][]uint64, n)
	res.Owner = make([][]topology.NodeID, n)
	owners := make([]topology.NodeID, n)
	for j := range owners {
		owners[j] = topology.NodeID(j)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if !held[i][j] {
				return nil, fmt.Errorf("collective: swing allgather left node %d missing slot %d", i, j)
			}
		}
		res.Values[i] = append([]uint64(nil), partial[i]...)
		res.Owner[i] = owners
	}
	return res, nil
}

// allGatherReference is the ring all-gather by simulation, the
// reference EmitAllGather is held to step by step: every node keeps the
// list of origins it holds, and each step forwards to the +1 neighbour
// what arrived in the previous one, so every transfer's block count is
// the length of a real list. It returns the schedule and, for
// verifyReplication, every node's final list.
func allGatherReference(t *topology.Torus) (*schedule.Schedule, [][]topology.NodeID) {
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
	return sc, have
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

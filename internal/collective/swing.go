package collective

import (
	"fmt"

	"torusx/internal/schedule"
	"torusx/internal/topology"
)

// Swing allreduce (De Sensi, Di Girolamo, Ashkboos, Hoefler et al.,
// "Swing: Short-cutting Rings for Higher Bandwidth Allreduce"). Where
// the ring algorithm always exchanges with distance-1 neighbours,
// Swing pairs node x at step s with
//
//	peer(x, s) = x + (−1)^x · ρ(s)  (mod a),   ρ(s) = (1 − (−2)^(s+1)) / 3
//
// so the exchange distance swings 1, −1, 3, −5, 11, … and the whole
// reduce-scatter over a ring of a = 2^q nodes finishes in q steps
// instead of a−1. ρ(s) is always odd, so peering flips parity and is
// an involution: each step is a perfect pairing, one send and one
// receive per node. Dimension-ordered application extends it to the
// whole torus, exactly like the ring reduction in this package; the
// allgather mirror runs the same pairings in reverse.

// swingRho returns ρ(s) = (1 − (−2)^(s+1)) / 3: 1, −1, 3, −5, 11, …
func swingRho(s int) int {
	p := 1
	for i := 0; i < s+1; i++ {
		p *= -2
	}
	return (1 - p) / 3
}

// swingPeer returns peer(x, s) on a ring of size a.
func swingPeer(x, s, a int) int {
	d := swingRho(s)
	if x%2 == 1 {
		d = -d
	}
	p := (x + d) % a
	if p < 0 {
		p += a
	}
	return p
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

// swingLeg describes the ring move of step s: the minimal wrap toward
// the peer, uniform over the ring up to direction parity.
func swingLeg(x, s, a int) (dir topology.Direction, hops int) {
	p := swingPeer(x, s, a)
	fwd := (p - x + a) % a
	if fwd <= a-fwd {
		return topology.Pos, fwd
	}
	return topology.Neg, a - fwd
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

// SwingSchedule is the registry adapter: it runs SwingAllReduce on a
// synthetic contribution matrix — exercising every internal invariant
// check — and returns the structural schedule.
func SwingSchedule(t *topology.Torus) (*schedule.Schedule, error) {
	res, err := SwingAllReduce(t, syntheticContrib(t.Nodes()))
	if err != nil {
		return nil, err
	}
	return res.Schedule, nil
}

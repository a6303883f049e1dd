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

// EmitSwing emits the Swing allreduce into sink, using the Swing
// pairing per dimension: a dimension-ordered reduce-scatter of log2(a)
// steps per dimension followed by the mirrored allgather. Every torus
// dimension must be a power of two. Steps whose exchange distance
// exceeds one hop declare Shared — the swung paths of same-parity
// nodes overlap, and the executor prices that serialization instead of
// rejecting it.
//
// At reduce-scatter step s node x keeps the ring coordinates it will
// own after the step and ships its partials for its peer's, halving
// the set it holds; the allgather mirror ships the same sets back. So
// step s of a dimension d of size a = 2^q moves 2^(q−s−1) · n / P(≤d)
// blocks per node in both halves, P(≤d) being the product of the
// sizes of dimensions 0 through d.
func EmitSwing(t *topology.Torus, sink schedule.Sink) error {
	qs := make([]int, t.NDims())
	for dim := range qs {
		a, q := t.Dim(dim), 0
		for 1<<q < a {
			q++
		}
		if 1<<q != a {
			return fmt.Errorf("collective: swing requires power-of-two dimensions, got %d in dim %d", a, dim)
		}
		qs[dim] = q
	}
	// phase emits dim's steps in order, or in reverse for the mirror.
	phase := func(name string, dim int, mirror bool) error {
		a, q := t.Dim(dim), qs[dim]
		if a == 1 {
			return nil
		}
		sink.Phase(fmt.Sprintf("%s-dim%d", name, dim), 0)
		for k := 0; k < q; k++ {
			s := k
			if mirror {
				s = q - 1 - k
			}
			leg := func(x int) (topology.Direction, int) { return swingLeg(x, s, a) }
			if err := sink.Step(ringStep(t, dim, stride(t, dim)<<(q-s-1), leg)); err != nil {
				return err
			}
		}
		return nil
	}
	for dim := 0; dim < t.NDims(); dim++ {
		if err := phase("swing-rs", dim, false); err != nil {
			return err
		}
	}
	for dim := t.NDims() - 1; dim >= 0; dim-- {
		if err := phase("swing-ag", dim, true); err != nil {
			return err
		}
	}
	return nil
}

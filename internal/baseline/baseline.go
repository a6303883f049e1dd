// Package baseline provides executable comparison algorithms for
// all-to-all personalized exchange on tori, complementing the analytic
// Table 2 columns in package costmodel:
//
//   - Direct: the non-combining algorithm. N−1 steps; in step k every
//     node sends the single block destined to the node k id-positions
//     ahead, routed dimension-ordered with minimal wrap. Maximal
//     startup count, minimal volume.
//   - Ring: a simple message-combining algorithm without the Suh–Shin
//     group structure: one phase per dimension, each a stride-1 ring
//     scatter in the positive direction (ai−1 steps). Contention-free
//     and one-port compliant, but with ~4× the startups of the
//     proposed algorithm and ~4× its transmitted volume on square
//     tori, isolating what the stride-4 group schedule buys.
//   - Factored and LogTime, the multiphase and power-of-two
//     minimum-startup exchanges, in their own files.
//
// Every baseline is a payload-annotated schedule builder: an Emit*
// function the algorithm registry (internal/algorithm) streams into
// the shared executor, and schedule.Collect gathers into a whole
// schedule. The executor replays the block movement, verifies delivery,
// and derives measured costs in the same units as the proposed
// algorithm's counters, including the wormhole link-sharing
// serialization of Direct's long id-shift worms (see EXPERIMENTS.md).
//
// All baselines run on any torus shape (no multiple-of-four
// restriction) apart from LogTime, which needs power-of-two sizes.
package baseline

import (
	"fmt"

	"torusx/internal/costmodel"
	"torusx/internal/par"
	"torusx/internal/schedule"
	"torusx/internal/topology"
)

// appendDirectRoute appends the dimension-ordered minimal route from a
// to b to segs as schedule segments (one per dimension with a non-zero
// offset), at most NDims() of them, so segs with that much spare
// capacity never reallocates.
func appendDirectRoute(segs []schedule.Seg, t *topology.Torus, a, b topology.Coord) []schedule.Seg {
	for dim := 0; dim < t.NDims(); dim++ {
		fwd := t.Wrap(dim, b[dim]-a[dim])
		if fwd == 0 {
			continue
		}
		dir, hops := topology.Pos, fwd
		if back := t.Dim(dim) - fwd; back < fwd {
			dir, hops = topology.Neg, back
		}
		segs = append(segs, schedule.Seg{Dim: dim, Dir: dir, Hops: hops})
	}
	return segs
}

// directGroup is the number of Direct steps EmitDirect builds per
// parallel round: few, so that a compile taking the steps as they are
// emitted (exec.CompileStream keeps four in flight) never waits long
// for a round, and enough that the rounds' fan-outs stay cheap. Of 4,
// 8, 16 and all n−1 steps on a 2-vCPU host, 4 and 8 gave the fastest
// cold 16×16 compile, and 8 the cheaper collected schedule.
const directGroup = 8

// EmitDirect emits the non-combining exchange into sink: one phase of
// N−1 steps; in step k = 1..N−1, node i sends block B[i, i+k] straight
// to node (i+k) mod N along the dimension-ordered minimal route. Every
// step is a cyclic-shift permutation, so each node sends and receives
// exactly one message per step (one-port compliant), but the
// simultaneous worms of one shift overlap on the ring links, so the
// steps are declared Shared and the executor charges their
// link-sharing serialization.
//
// Every step k is a full cyclic-shift permutation (k != 0, so no route is ever empty), so
// sizes are known up front: each group of directGroup steps takes its
// transfers, their one-block payloads and their route legs (NDims()
// slots per transfer, of which multi-leg routes keep theirs as Segs)
// from three backings instead of per-transfer allocations, and the
// group's independent steps are built in parallel before it is emitted
// in order.
func EmitDirect(t *topology.Torus, sink schedule.Sink) error {
	n := t.Nodes()
	coords := make([]topology.Coord, n)
	for i := range coords {
		coords[i] = t.CoordOf(topology.NodeID(i))
	}
	sink.Phase("direct", 0)
	nd := t.NDims()
	steps := make([]schedule.Step, directGroup)
	for k0 := 1; k0 < n; k0 += directGroup {
		g := min(directGroup, n-k0)
		transfers := make([]schedule.Transfer, g*n)
		payload := make([]int32, g*n)
		var legs []schedule.Seg // a one-dimensional route never has a second leg
		if nd > 1 {
			legs = make([]schedule.Seg, g*n*nd)
		}
		par.ForEach(0, g, func(lo, hi int) {
			var one [1]schedule.Seg // route slot when legs is nil
			for s := lo; s < hi; s++ {
				k, base := k0+s, s*n
				for i := 0; i < n; i++ {
					j := (i + k) % n
					slots := one[:0]
					if legs != nil {
						l := (base + i) * nd
						slots = legs[l : l : l+nd]
					}
					segs := appendDirectRoute(slots, t, coords[i], coords[j])
					pay := payload[base+i : base+i+1 : base+i+1]
					pay[0] = int32(i*n + j)
					tr := &transfers[base+i]
					tr.Src, tr.Dst = topology.NodeID(i), topology.NodeID(j)
					tr.Dim, tr.Dir, tr.Hops = segs[0].Dim, segs[0].Dir, segs[0].Hops
					tr.Blocks, tr.Payload = 1, pay
					if len(segs) > 1 {
						tr.Segs = segs[:len(segs):len(segs)]
					}
				}
				steps[s] = schedule.Step{Transfers: transfers[base : base+n : base+n], Shared: true}
			}
		})
		for s := range steps[:g] {
			if err := sink.Step(steps[s]); err != nil {
				return err
			}
			steps[s] = schedule.Step{}
		}
	}
	return nil
}

// EmitRing emits the dimension-ordered ring-scatter exchange into
// sink: for each dimension k in order, dims[k]−1 steps in which
// every node forwards to its +1 neighbour along k all blocks whose
// destination coordinate in k has not been reached yet. After phase k
// every block sits at the correct coordinate in dimensions 0..k.
// Every step is link-disjoint (each node uses only its own +1 link),
// so no step is Shared.
//
// Every node does what node 0 does, translated, so the schedule
// declares the lattice of period 1 in every dimension.
func EmitRing(t *topology.Torus, sink schedule.Sink) error {
	sink.Lattice(1)
	r := newRounds(t)
	for dim := 0; dim < t.NDims(); dim++ {
		size := t.Dim(dim)
		if size == 1 {
			continue
		}
		send, err := r.setDim(dim)
		if err != nil {
			return err
		}
		for off := range send {
			send[off] = off > 0
		}
		sink.Phase(fmt.Sprintf("ring-dim%d", dim), 0)
		for s := 1; s < size; s++ {
			st, err := r.step(1, false)
			if err != nil {
				return err
			}
			if err := sink.Step(st); err != nil {
				return err
			}
		}
	}
	return r.settled()
}

// RingClosedForm returns the analytic measure of Ring on dims:
// Σ(ai−1) steps and hops, and Σ N(ai−1)/ai ... computed exactly as the
// executable algorithm measures it: in step s of phase k the busiest
// node sends (ai−s)·N/ai blocks.
func RingClosedForm(dims []int) costmodel.Measure {
	n := 1
	for _, d := range dims {
		n *= d
	}
	m := costmodel.Measure{}
	for _, ai := range dims {
		slab := n / ai
		for s := 1; s < ai; s++ {
			m.Steps++
			m.Hops++
			m.Blocks += (ai - s) * slab
		}
	}
	return m
}

// SerializedGroups returns the cost of the A1 ablation: the proposed
// algorithm without the (r+c) mod 4 direction split. All four
// direction classes of a group phase would contend on the same links,
// so each group-phase step must be serialized into four sub-steps
// (one per class); the submesh phases pair disjoint nodes and are
// unaffected. Startup cost quadruples for the first n phases while
// volume, hops and rearrangement change only through the extra
// startups.
func SerializedGroups(dims []int) costmodel.Measure {
	m := costmodel.ProposedND(dims)
	n := len(dims)
	a1 := dims[0]
	groupSteps := n * (a1/4 - 1)
	m.Steps += 3 * groupSteps // each group step becomes 4
	return m
}

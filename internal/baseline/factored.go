package baseline

import (
	"fmt"

	"torusx/internal/schedule"
	"torusx/internal/topology"
)

// Factored is the multiphase generalization of LogTime to arbitrary
// dimension sizes, in the spirit of Bokhari's multiphase complete
// exchange [2]: each dimension size is decomposed into its prime
// factors, and each factor f at place value P contributes f−1 rounds.
// In the round for digit value v (1 <= v < f), every node sends over
// distance v·P all blocks whose remaining ring offset has mixed-radix
// digit v at place P — which the move zeroes. Startups total
// sum over dims of sum(f_i − 1), e.g. 4 rounds for a 12-ring
// (12 = 2·2·3) versus 11 for the stride-1 ring scatter.
//
// For power-of-two sizes Factored degenerates exactly to LogTime.
// Like LogTime, rounds moving distance > 1 share links under wormhole
// switching; the measured Blocks include the per-step link-sharing
// serialization factor.

// primeFactors returns the prime factorization of v in ascending order.
func primeFactors(v int) []int {
	var out []int
	for f := 2; f*f <= v; f++ {
		for v%f == 0 {
			out = append(out, f)
			v /= f
		}
	}
	if v > 1 {
		out = append(out, v)
	}
	return out
}

// EmitFactored emits the multiphase exchange on any torus shape into
// sink as a payload-annotated schedule, under the lattice of period 1
// in every dimension (see EmitRing). Rounds moving distance > 1 are declared
// Shared (their worms overlap on the ring links); distance-1 rounds
// are link-disjoint. Each dimension phase ends with a full per-node
// rearrangement, recorded as the phase's Rearrange annotation.
func EmitFactored(t *topology.Torus, sink schedule.Sink) error {
	for d := 0; d < t.NDims(); d++ {
		if t.Dim(d) < 1 {
			return fmt.Errorf("baseline: bad dimension %d", t.Dim(d))
		}
	}
	sink.Lattice(1)
	n := t.Nodes()
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
		sink.Phase(fmt.Sprintf("factored-dim%d", dim), n)
		place := 1
		for _, f := range primeFactors(size) {
			for v := 1; v < f; v++ {
				for off := range send {
					send[off] = (off/place)%f == v
				}
				dist := v * place
				st, err := r.step(dist, dist > 1)
				if err != nil {
					return err
				}
				if len(st.Transfers) > 0 {
					if err := sink.Step(st); err != nil {
						return err
					}
				}
			}
			place *= f
		}
	}
	return r.settled()
}

// FactoredSteps returns the startup count of Factored on dims:
// sum over dims of sum(prime factor − 1).
func FactoredSteps(dims []int) int {
	steps := 0
	for _, a := range dims {
		for _, f := range primeFactors(a) {
			steps += f - 1
		}
	}
	return steps
}

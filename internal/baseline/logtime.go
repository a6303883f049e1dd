package baseline

import (
	"fmt"

	"torusx/internal/schedule"
	"torusx/internal/topology"
)

// This file implements an executable minimum-startup exchange in the
// spirit of Suh & Yalamanchili [9], whose closed-form costs appear in
// Table 2. The paper's conclusion poses the comparative study of the
// proposed algorithm against [9] as future work; LogTime makes that
// comparison executable.
//
// LogTime is a Bruck-style combining exchange: for each dimension k
// (sizes must be powers of two) it runs log2(ai) rounds; in round r
// every node sends to the node 2^r ahead all blocks whose remaining
// ring offset along k has bit r set — which the move clears. After all
// rounds of dimension k every block has the correct k-coordinate.
// Startup count is sum(log2 ai) — 2d on a 2^d x 2^d torus, the O(d)
// startup class of [9] — while each round moves N/2 blocks, giving the
// higher transmitted volume that Table 2 charges minimum-startup
// schemes. Every round is a +2^r shift permutation, hence one-port
// compliant.
//
// Unlike the Suh-Shin schedule, simultaneous distance-2^r worms in one
// direction share links, so rounds with r >= 2 are not contention-free
// under wormhole switching (TestLogTimeHasLinkContention); the
// flit-level cost is measurable with wormhole.FromStep.

// isPow2 reports whether v is a positive power of two.
func isPow2(v int) bool { return v > 0 && v&(v-1) == 0 }

// EmitLogTime emits the logarithmic-startup exchange into sink as a
// payload-annotated schedule, under the lattice of period 1 in every
// dimension (see EmitRing). Every dimension size must be a power of
// two (the same restriction as [9]). Rounds with r >= 2 are declared
// Shared: distance-r worms of adjacent senders overlap on the ring
// links, and the executor charges their serialization (factor r for a
// full round). Each dimension phase ends with one full per-node
// rearrangement, recorded as the phase's Rearrange annotation, as the
// combining schemes of [9] require between dimension sweeps.
func EmitLogTime(t *topology.Torus, sink schedule.Sink) error {
	for d := 0; d < t.NDims(); d++ {
		if !isPow2(t.Dim(d)) {
			return fmt.Errorf("baseline: logtime requires power-of-two dimensions, got %s", t)
		}
	}
	sink.Lattice(1)
	n := t.Nodes()
	rs := newRounds(t)
	for dim := 0; dim < t.NDims(); dim++ {
		send, err := rs.setDim(dim)
		if err != nil {
			return err
		}
		sink.Phase(fmt.Sprintf("logtime-dim%d", dim), n)
		for r := 1; r < t.Dim(dim); r <<= 1 {
			// The Bruck criterion: send every block whose remaining ring
			// offset along dim has bit r set; the +r move clears that bit.
			for off := range send {
				send[off] = off&r != 0
			}
			st, err := rs.step(r, r > 1)
			if err != nil {
				return err
			}
			if len(st.Transfers) > 0 {
				if err := sink.Step(st); err != nil {
					return err
				}
			}
		}
	}
	return rs.settled()
}

package costmodel

// Sparse-traffic extensions: the planner in internal/algorithm scores
// candidate schedules for a sub-matrix of the all-to-all traffic by
// exact schedule-level measurement (the same Measure the executor
// reports), so its ranking needs no closed forms. What this file adds
// is the surrounding error budget and a generic lower bound used by
// the differential tests to sanity-check every candidate.

// PlannerModelError is the relative slack the planner's cost ranking
// is allowed against the measured cost of its pick: the pick's
// completion time must be within (1+PlannerModelError) of the best
// candidate's. The planner scores candidates with the executor's own
// Measure, so the ranking itself is exact; the budget covers the two
// modelled quantities that are not — the Rearrange annotations of
// pruned schedules, which charge each phase boundary with the blocks
// its busiest node holds (see traffic.Prune), and tie-breaks between
// candidates whose completions differ below this slack.
const PlannerModelError = 0.05

// SparseFloor returns a lower bound, in transmitted blocks along the
// critical node, for delivering a traffic matrix with the given
// non-self marginals (out[i] = blocks node i must inject, in[j] =
// blocks node j must absorb) on any one-port schedule. In every step a
// node sends at most the step's critical-node block count and likewise
// receives at most that many, so summed over the whole schedule the
// critical node's transmitted blocks are at least the largest
// injection and at least the largest absorption:
//
//	Blocks >= max(max_i out[i], max_j in[j])
//
// The bound is tight for the direct schedule under a permutation
// matrix and loose for combining schedules (which may carry a block
// several times); it exists to catch measurement bugs — a candidate
// reporting fewer transmitted blocks than the floor is mismeasured,
// not clever.
func SparseFloor(out, in []int) int {
	floor := 0
	for _, v := range out {
		if v > floor {
			floor = v
		}
	}
	for _, v := range in {
		if v > floor {
			floor = v
		}
	}
	return floor
}

// Property tests: the paper's two per-step invariants — wormhole
// contention-freedom and the one-port model — must hold for every step
// of the proposed schedule on every shape with sides in {4, 8, 12,
// 16}, and the checks themselves run concurrently (CI runs this file
// under -race), so the test doubles as a race exercise of the
// step-parallel validation path.
package exec_test

import (
	"testing"

	"torusx/internal/algorithm"
	"torusx/internal/exchange"
	"torusx/internal/exec"
	"torusx/internal/oracle"
	"torusx/internal/par"
	"torusx/internal/schedule"
	"torusx/internal/topology"
)

// invariantSides are the per-dimension sizes of the property sweep.
var invariantSides = []int{4, 8, 12, 16}

// invariantShapes enumerates every 2D and 3D shape with sides drawn
// from invariantSides, sorted non-increasing as the exchange requires.
func invariantShapes() [][]int {
	var shapes [][]int
	for _, a := range invariantSides {
		for _, b := range invariantSides {
			if b > a {
				continue
			}
			shapes = append(shapes, []int{a, b})
			for _, c := range invariantSides {
				if c > b {
					continue
				}
				shapes = append(shapes, []int{a, b, c})
			}
		}
	}
	return shapes
}

// TestProposedStepInvariantsParallel checks contention-freedom and the
// one-port model for every step of the proposed schedule on the full
// shape grid, fanning the per-step checks out across a worker pool.
func TestProposedStepInvariantsParallel(t *testing.T) {
	for _, dims := range invariantShapes() {
		dims := dims
		t.Run(shapeName("proposed", dims), func(t *testing.T) {
			tor := topology.MustNew(dims...)
			if raceEnabled && tor.Nodes() > 2048 {
				t.Skipf("%d nodes too slow under the race detector", tor.Nodes())
			}
			sc, err := schedule.Collect(tor, exchange.EmitStructural)
			if err != nil {
				t.Fatal(err)
			}
			var steps []*schedule.Step
			var names []string
			var indices []int
			sc.EachStep(func(p *schedule.Phase, si int, s *schedule.Step) {
				steps = append(steps, s)
				names = append(names, p.Name)
				indices = append(indices, si)
			})
			var ferr par.FirstError
			par.ForEach(4, len(steps), func(lo, hi int) {
				for i := lo; i < hi; i++ {
					// CheckStep enforces one-port plus strict
					// link-disjointness, regardless of any Shared
					// declaration — the proposed schedule must be
					// contention-free outright.
					ferr.Report(i, oracle.CheckStep(tor, names[i], indices[i], steps[i]))
				}
			})
			if err := ferr.Err(); err != nil {
				t.Fatalf("invariant violated at step %d: %v", ferr.Index(), err)
			}
			// And the parallel executor end to end: accepting the
			// schedule implies every step passed the same checks.
			if _, err := exec.Run(sc, exec.Options{Workers: 4}); err != nil {
				t.Fatalf("parallel executor rejected the schedule: %v", err)
			}
		})
	}
}

// TestOnePortHoldsOnSharedStepsParallel: Shared steps of the
// minimum-startup baselines time-share links, but the one-port model
// must still hold per step. Checked concurrently across steps.
func TestOnePortHoldsOnSharedStepsParallel(t *testing.T) {
	for _, dims := range [][]int{{8, 8}, {16, 16}, {8, 8, 8}} {
		dims := dims
		t.Run(shapeName("logtime", dims), func(t *testing.T) {
			b, err := algorithm.For("logtime")
			if err != nil {
				t.Fatal(err)
			}
			tor := topology.MustNew(dims...)
			sc, err := b.BuildSchedule(tor)
			if err != nil {
				t.Skipf("builder: %v", err)
			}
			var steps []*schedule.Step
			var names []string
			var indices []int
			sc.EachStep(func(p *schedule.Phase, si int, s *schedule.Step) {
				steps = append(steps, s)
				names = append(names, p.Name)
				indices = append(indices, si)
			})
			var ferr par.FirstError
			par.ForEach(4, len(steps), func(lo, hi int) {
				for i := lo; i < hi; i++ {
					ferr.Report(i, oracle.CheckStepOnePort(names[i], indices[i], steps[i]))
				}
			})
			if err := ferr.Err(); err != nil {
				t.Fatalf("one-port violated: %v", err)
			}
		})
	}
}

package algorithm

import (
	"fmt"
	"sort"
	"strconv"

	"torusx/internal/costmodel"
	"torusx/internal/dfly"
	"torusx/internal/exchange"
	"torusx/internal/exec"
	"torusx/internal/obs"
	"torusx/internal/progcache"
	"torusx/internal/schedule"
	"torusx/internal/topology"
	"torusx/internal/traffic"
)

// This file is the sparse-traffic seam of the registry: every builder
// whose full schedule delivers the complete all-to-all with payload
// annotations gets a sparse variant for free through the generic prune
// pass (traffic.Prune), and the two emitters with native many-to-many
// construction — exchange.EmitSparsePayload behind proposed-sim and
// dfly.EmitDimExchange behind dimexchange — take the matrix's blocks
// in place of the full exchange's, and their schedule is collected
// whole for the prune pass.
// On top of the seam sits the planner: PlanSparse scores every sparse
// candidate on a (matrix, fabric) pair with the executor's own cost
// measure and returns the compiled winner.

// sparseCapable names the registered emitters whose schedules carry
// complete payload annotations for the full all-to-all — the
// precondition of the prune pass. The structural "proposed" emitter
// (no payloads) and the collectives (broadcast, allgather,
// reducescatter, swing — they deliver a different communication
// pattern, not a sub-matrix of the all-to-all, and carry no payloads)
// are excluded by design, not omission.
var sparseCapable = map[string]bool{
	"proposed-sim": true,
	"direct":       true,
	"ring":         true,
	"factored":     true,
	"logtime":      true,
	"dimexchange":  true,
}

// SparseCapable reports whether the named builder supports sparse
// traffic (natively or through the prune pass).
func SparseCapable(name string) bool { return sparseCapable[name] }

// SparseSupporting lists, sorted, the registered algorithms that are
// both defined on f's fabric kind and sparse-capable — the candidate
// set PlanSparse ranks.
func SparseSupporting(f topology.Fabric) []string {
	var out []string
	for name, b := range registry {
		if sparseCapable[name] && b.Supports(f) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// SparseSchedule lowers b to a schedule that carries exactly the
// blocks of m: natively for the builders with many-to-many
// construction, and by pruning the full schedule for the rest. The
// result always passes through traffic.Prune, which compacts empty
// transfers/steps/phases, charges each Rearrange annotation to the
// busiest node, and proves every non-self block of m is carried.
func SparseSchedule(b Builder, f topology.Fabric, m traffic.Matrix) (*schedule.Schedule, error) {
	return sparseSchedule(b, f, m, nil)
}

// sparseSchedule is SparseSchedule with request tracing: the native or
// dense schedule construction is recorded as a "plan" stage and the
// prune pass as "prune" on req (nil-safe).
func sparseSchedule(b Builder, f topology.Fabric, m traffic.Matrix, req *obs.Request) (*schedule.Schedule, error) {
	if !sparseCapable[b.Name()] {
		return nil, fmt.Errorf("algorithm: %q has no sparse variant (sparse-capable: %v)", b.Name(), SparseSupporting(f))
	}
	if !b.Supports(f) {
		return nil, fmt.Errorf("algorithm: %q does not support fabric %s", b.Name(), f.Fingerprint())
	}
	if f.Nodes() != m.Nodes() {
		return nil, fmt.Errorf("algorithm: matrix over %d nodes on a %d-node fabric", m.Nodes(), f.Nodes())
	}
	var sc *schedule.Schedule
	var err error
	psp := req.Stage(obs.StagePlan)
	switch {
	case b.Name() == "proposed-sim":
		// Native: the n+2 phases route every block by its destination
		// alone, so the matrix's blocks ride the schedule directly and
		// the payloads are exact — the schedule oracle.RunSparse
		// records.
		t, ok := f.(*topology.Torus)
		if !ok {
			return nil, fmt.Errorf("algorithm: proposed-sim requires a torus fabric")
		}
		sc, err = schedule.Collect(t, func(t *topology.Torus, s schedule.Sink) error {
			return exchange.EmitSparsePayload(t, m.Blocks(), s)
		})
	case b.Name() == "dimexchange":
		// Native: the port-ordered builder replays block movement while
		// emitting, for any traffic matrix.
		d, ok := f.(*topology.Dragonfly)
		if !ok {
			return nil, fmt.Errorf("algorithm: dimexchange requires a dragonfly fabric")
		}
		sc, err = schedule.Collect(d, func(d *topology.Dragonfly, s schedule.Sink) error {
			return dfly.EmitDimExchange(d, m.Blocks(), s)
		})
	default:
		sc, err = b.BuildSchedule(f)
	}
	psp.End()
	if err != nil {
		return nil, err
	}
	prsp := req.Stage(obs.StagePrune)
	defer prsp.End()
	return traffic.Prune(sc, m)
}

// BuildSparseProgram is BuildProgram for a traffic matrix: the sparse
// schedule compiled with m declared as the program's traffic (so every
// replay delivery-verifies against exactly m), memoized in the same
// process-wide program cache. The matrix fingerprint is folded into
// the cache key's name component, so distinct matrices can never share
// a compiled program and warm lookups never re-hash the block list.
// Any opt.Traffic the caller set is superseded by m. As with
// BuildProgram, the cache records the sparse schedule's construction as
// the program's schedule source.
func BuildSparseProgram(b Builder, f topology.Fabric, m traffic.Matrix, opt exec.Options) (*exec.Program, error) {
	opt.Traffic = m.Blocks()
	name := b.Name() + "+sparse:" + strconv.FormatUint(m.Fingerprint(), 16)
	key := progcache.Key(name, f, 0)
	source := func() (*schedule.Schedule, error) { return sparseSchedule(b, f, m, nil) }
	return cache.GetOrCompileTiered(key, nil, 0, opt.Request, source, func() (*exec.Program, error) {
		sc, err := sparseSchedule(b, f, m, opt.Request)
		if err != nil {
			return nil, err
		}
		csp := opt.Request.Stage(obs.StageCompile)
		defer csp.End()
		return exec.Compile(sc, opt)
	})
}

// Score is one planner candidate's outcome: its compile-time measure
// and modelled completion, or the error that excluded it (builder
// preconditions — e.g. factored's even-dimension requirement — make
// exclusion a normal outcome, not a failure of the plan).
type Score struct {
	Name       string
	Measure    costmodel.Measure
	Completion float64
	Err        error
}

// Plan is PlanSparse's outcome: the compiled winner plus every
// candidate's score, ranked by modelled completion (excluded
// candidates last, in name order).
type Plan struct {
	Winner  string
	Program *exec.Program
	Params  costmodel.Params
	Scores  []Score
}

// PlanSparse scores every sparse-capable builder on (f, m) under the
// machine parameters p and returns the cheapest compiled program. The
// ranking uses each candidate's exact compile-time Measure — the same
// numbers the executor reports when the program runs — so the pick's
// measured completion is within costmodel.PlannerModelError of the
// best candidate by construction; the slack budgets only the
// busiest-node Rearrange annotation of pruned schedules and
// tie-breaks. Ties in completion break lexicographically by name, so
// a plan is deterministic for a (fabric, matrix, params) triple.
// Candidate programs (winner included) are served by the process-wide
// program cache, so re-planning a seen (matrix, fabric) pair compiles
// nothing.
func PlanSparse(f topology.Fabric, m traffic.Matrix, p costmodel.Params, opt exec.Options) (*Plan, error) {
	names := SparseSupporting(f)
	if len(names) == 0 {
		return nil, fmt.Errorf("algorithm: no sparse-capable algorithm supports fabric %s", f.Fingerprint())
	}
	plan := &Plan{Params: p}
	programs := map[string]*exec.Program{}
	var ranked, excluded []Score
	// One "plan-scoring" span brackets the whole candidate sweep; each
	// candidate's cache-lookup/plan/prune/compile spans nest inside it
	// on the request's timeline.
	ssp := opt.Request.Stage(obs.StagePlanScoring)
	for _, name := range names {
		b := registry[name]
		pg, err := BuildSparseProgram(b, f, m, opt)
		if err != nil {
			excluded = append(excluded, Score{Name: name, Err: err})
			continue
		}
		mm := pg.Measure()
		ranked = append(ranked, Score{Name: name, Measure: mm, Completion: p.Completion(mm)})
		programs[name] = pg
	}
	ssp.End()
	if len(ranked) == 0 {
		return nil, fmt.Errorf("algorithm: every sparse candidate failed on %s: %v", f.Fingerprint(), excluded[0].Err)
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].Completion != ranked[j].Completion {
			return ranked[i].Completion < ranked[j].Completion
		}
		return ranked[i].Name < ranked[j].Name
	})
	plan.Scores = append(ranked, excluded...)
	plan.Winner = ranked[0].Name
	plan.Program = programs[plan.Winner]
	return plan, nil
}

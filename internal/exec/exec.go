// Package exec is the shared executor of the schedule IR: every
// algorithm in this repository — the proposed Suh–Shin exchange, the
// Direct/Ring/Factored/LogTime baselines and the collectives — lowers
// to a schedule.Schedule, and this package is the single place that
//
//   - checks every step against the one-port model and, for steps not
//     declared Shared, wormhole contention-freedom (link-disjointness,
//     expanding every transfer's route hop by hop);
//   - replays the block movement of payload-annotated schedules and
//     verifies delivery against the declared traffic matrix;
//   - derives a costmodel.Measure uniformly: startups from the step
//     count, transmission from the per-step maximum message size
//     multiplied by the step's link-sharing serialization factor
//     (Shared steps), propagation from the per-step maximum route
//     length, and rearrangement from the per-phase annotations.
//
// Before this layer existed only the proposed algorithm got
// contention/one-port checking and uniform measurement; the baselines
// hand-rolled their own loops and Direct/Ring skipped wormhole
// link-contention modelling entirely. Routing every algorithm through
// one executor makes the paper's Table 2 comparison apples-to-apples.
package exec

import (
	"torusx/internal/block"
	"torusx/internal/costmodel"
	"torusx/internal/obs"
	"torusx/internal/schedule"
	"torusx/internal/telemetry"
)

// Options configures a run.
type Options struct {
	// Traffic declares the traffic matrix the schedule must deliver:
	// one block per (origin, dest) pair. Nil means the full all-to-all
	// matrix (every node sends one block to every node, itself
	// included), which is what the four exchange algorithms carry.
	Traffic []block.Block
	// Serial replays a compiled program's log moves in schedule order
	// and then its delivery pass, all on the calling goroutine. The
	// default (false) is the parallel replay: a step whose log moves
	// copy enough elements to pay for goroutines and a barrier (2^18,
	// set from a measured crossover) is sharded by sender over a
	// par.Workers()-wide pool with one barrier after it, a delivery pass
	// of at least as many elements is sharded by node, and everything
	// smaller runs inline on the caller, in order. Both modes accept
	// every compiled program, since Compile rejects a block forwarded
	// within the step that delivered it, and both are differentially
	// tested to deliver identical matrices. Replay only: Compile ignores
	// it.
	Serial bool
	// Workers overrides the fan-out width of the parallel replay's big
	// steps and delivery pass (0 = runtime.GOMAXPROCS). Ignored when
	// Serial is set, and by work that runs inline.
	Workers int
	// Telemetry receives the run's span events, counters and per-link
	// gauges (see internal/telemetry). Nil disables telemetry entirely:
	// the executor takes exactly the uninstrumented code path behind a
	// single branch, which the overhead guard benchmarks.
	Telemetry *telemetry.Recorder
	// Request, when non-nil, receives wall-clock pipeline stage spans
	// ("replay" here; "plan"/"compile"/"cache-lookup" upstream in
	// internal/algorithm and internal/progcache — see internal/obs).
	// Nil is the disabled state and costs the replay path nothing,
	// same contract as Telemetry.
	Request *obs.Request
}

// Result is the outcome of executing a schedule.
type Result struct {
	// Schedule is the schedule Run was given; a program's RunArena
	// reports its re-planned schedule (Program.Schedule) on traced runs
	// and nil otherwise, so untraced replays never re-plan.
	Schedule *schedule.Schedule
	// Measure is the uniformly derived cost-model measurement.
	Measure costmodel.Measure
	// Replayed reports whether the schedule carried payloads and its
	// block movement was replayed and delivery-verified.
	Replayed bool
	// Buffers holds each node's final blocks after a replay (nil for
	// structural-only runs).
	Buffers []*block.Buffer
	// MaxSharing is the largest link-sharing serialization factor of
	// any step (1 for fully contention-free schedules).
	MaxSharing int
	// BytesMoved is the bytes the replay's gathers physically copied
	// (Program.BytesMoved). Zero for structural-only runs.
	BytesMoved int64
}

// Run executes sc once: Compile followed by a replay on a one-shot
// arena, for tests that need a one-shot compile; production code
// builds through the program cache (algorithm.BuildProgram) and reuses
// arenas instead. The program records sc as its schedule source, and
// the Result reports sc itself as its Schedule.
func Run(sc *schedule.Schedule, opt Options) (*Result, error) {
	pg, err := Compile(sc, opt)
	if err != nil {
		return nil, err
	}
	pg.SetSource(func() (*schedule.Schedule, error) { return sc, nil })
	res, err := pg.Run(opt)
	if err == nil {
		res.Schedule = sc
	}
	return res, err
}

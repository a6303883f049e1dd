// Package torusx implements the all-to-all personalized exchange
// (complete exchange) algorithms of Y.-J. Suh and K. G. Shin,
// "Efficient All-to-All Personalized Exchange in Multidimensional
// Torus Networks" (ICPP 1998), together with the simulation,
// verification and cost-model machinery needed to reproduce the
// paper's evaluation.
//
// The core entry points are:
//
//   - NewTorus:            construct an n-dimensional torus.
//   - AllToAll:            run the proposed n+2-phase exchange as a
//     compiled program (contention- and one-port-checked at compile,
//     delivery-verified on replay), returning measured costs in the
//     paper's units.
//   - AllToAllConcurrent:  run the same exchange as a goroutine-per-node
//     SPMD program communicating over channels.
//   - AllToAllArbitrary:   run on tori whose dimensions are not
//     multiples of four, via the paper's virtual-node extension.
//   - AllToAllSparse:      route an arbitrary traffic matrix through
//     the same schedule on the block-level simulator.
//   - ExchangeData:        apply the compiled exchange to real
//     per-pair payloads.
//   - ScheduleFor:         build and verify the full schedule without
//     simulating data (scales to tens of thousands of nodes).
//   - Predict/Completion:  the closed-form cost model of Table 1 and
//     the machine-parameter completion-time conversion.
//   - Compare:             measured costs of the executable baselines
//     (Direct, Ring, Factored, LogTime) next to the proposed
//     algorithm, every one lowered to the schedule IR and run through
//     the same executor (internal/algorithm + internal/exec).
//   - Broadcast, Scatter, Gather, AllGather, AllReduce (collectives.go):
//     the sibling collectives on the same substrate.
//
// Dense exchanges (AllToAll, ExchangeData, Compare) replay the program
// that internal/algorithm builds, compiles and caches. Sparse traffic
// (AllToAllSparse, AllToAllSparseArbitrary, Scatter, Gather) runs on
// the block-level simulator instead, whose per-node rearrangement
// charge follows the blocks a node actually holds; all four share one
// validation and delivery check.
//
// Tori must have at least two dimensions, sizes sorted non-increasing
// (a1 >= a2 >= ... >= an); AllToAll additionally requires every size
// to be a multiple of four (use AllToAllArbitrary otherwise).
package torusx

import (
	"fmt"

	"torusx/internal/algorithm"
	"torusx/internal/block"
	"torusx/internal/costmodel"
	"torusx/internal/exchange"
	"torusx/internal/exec"
	"torusx/internal/schedule"
	"torusx/internal/simchan"
	"torusx/internal/topology"
	"torusx/internal/trace"
	"torusx/internal/traffic"
	"torusx/internal/verify"
)

// Torus is an n-dimensional wrap-around network; see NewTorus.
type Torus = topology.Torus

// CostParams are the machine parameters of the performance model
// (startup, per-byte transmission, per-hop propagation, per-byte
// rearrangement, block size).
type CostParams = costmodel.Params

// Measure is a cost-model measurement: startups, transmitted blocks
// along the critical node, propagation hops and rearranged blocks.
type Measure = costmodel.Measure

// Schedule is the structural phase/step/transfer representation of a
// run, checkable for contention-freedom. A transfer's Payload, when
// recorded, lists the dense ids origin*N + dest of the blocks it moves
// (N = Fabric.Nodes()).
type Schedule = schedule.Schedule

// NewTorus constructs a torus with the given per-dimension sizes.
func NewTorus(dims ...int) (*Torus, error) { return topology.New(dims...) }

// T3DParams returns Cray T3D-class machine parameters with block size
// m bytes.
func T3DParams(m int) CostParams { return costmodel.T3D(m) }

// LowStartupParams returns parameters with hardware-assisted message
// initiation, for exploring the crossover against the minimum-startup
// algorithm [9].
func LowStartupParams(m int) CostParams { return costmodel.LowStartup(m) }

// Report is the outcome of a verified exchange run.
type Report struct {
	Dims    []int
	Nodes   int
	Phases  int
	Measure Measure
	// NonContiguousSends counts transmissions that were not one
	// contiguous run of the sender's data array (zero in 2D; see
	// EXPERIMENTS.md for the n >= 3 finding).
	NonContiguousSends int
	// MessagesSent is filled by the concurrent backend only.
	MessagesSent int

	// A run of a compiled program keeps the program, whose schedule is
	// re-planned on the first Schedule or Summary call; a simulator run
	// keeps the schedule it recorded.
	prog  *exec.Program
	sched *Schedule
}

// Schedule returns the communication schedule of the run (nil for the
// concurrent backend, which records no global schedule). For a compiled
// program it is re-planned on the first call (exec.Program.Schedule),
// and nil if that fails; Summary reports the error.
func (r *Report) Schedule() *Schedule {
	if r.prog != nil {
		sc, _ := r.prog.Schedule()
		return sc
	}
	return r.sched
}

// Summary renders a per-step overview of the run's schedule.
func (r *Report) Summary() string {
	sc := r.sched
	if r.prog != nil {
		var err error
		if sc, err = r.prog.Schedule(); err != nil {
			return fmt.Sprintf("(schedule unavailable: %v)", err)
		}
	}
	if sc == nil {
		return "(no schedule recorded)"
	}
	return trace.Summary(sc)
}

// Completion converts the report's measured costs into wall-clock
// microseconds under the given machine parameters.
func (r *Report) Completion(p CostParams) float64 { return p.Completion(r.Measure) }

// reportFrom builds the report of a block-level simulator run.
func reportFrom(res *exchange.Result) *Report {
	return &Report{
		Dims:               res.Torus.Dims(),
		Nodes:              res.Torus.Nodes(),
		Phases:             res.Counters.Phases,
		Measure:            measureOf(res),
		NonContiguousSends: res.Counters.NonContiguousSends,
		sched:              res.Schedule,
	}
}

// measureOf converts a simulator run's counters into a Measure.
func measureOf(res *exchange.Result) Measure {
	return Measure{
		Steps:            res.Counters.Steps,
		Blocks:           res.Counters.SumMaxBlocks,
		Hops:             res.Counters.SumMaxHops,
		RearrangedBlocks: res.Counters.RearrangedBlocksMaxPerNode,
	}
}

// proposedProgram is the registry name of the payload-carrying build
// of the proposed exchange (exchange.PayloadSchedule, the dense builder
// held to the block-level simulator), the program the dense entry
// points replay.
const proposedProgram = "proposed-sim"

// replayProgram resolves alg's compiled program on f through the
// process-wide program cache and replays it once on the program's arena,
// which re-checks that every node received exactly its blocks.
func replayProgram(alg string, f topology.Fabric) (*exec.Program, error) {
	b, err := algorithm.For(alg)
	if err != nil {
		return nil, err
	}
	pg, err := algorithm.BuildProgram(b, f, exec.Options{})
	if err != nil {
		return nil, err
	}
	arena := pg.AcquireArena()
	if _, err := pg.RunArena(arena, exec.Options{}); err != nil {
		return nil, err
	}
	pg.ReleaseArena(arena)
	return pg, nil
}

// AllToAll executes the proposed exchange on t and returns the measured
// costs. It replays the exchange's compiled program, served from the
// process-wide program cache: compiling checked every step for
// contention-freedom and one-port compliance, and the replay verifies
// that every node ends with exactly the blocks destined to it.
func AllToAll(t *Torus) (*Report, error) {
	pg, err := replayProgram(proposedProgram, t)
	if err != nil {
		return nil, err
	}
	return &Report{
		Dims:               t.Dims(),
		Nodes:              t.Nodes(),
		Phases:             pg.NumPhases(),
		Measure:            pg.Measure(),
		NonContiguousSends: costmodel.ProposedNonContiguousSends(t.Dims()),
		prog:               pg,
	}, nil
}

// AllToAllConcurrent executes the exchange as one goroutine per node
// communicating over channels (one-port model), verifies delivery,
// and returns the report. No global schedule is recorded.
func AllToAllConcurrent(t *Torus) (*Report, error) {
	res, err := simchan.Run(t)
	if err != nil {
		return nil, err
	}
	if err := verify.Delivered(res.Torus, res.Buffers); err != nil {
		return nil, err
	}
	return &Report{
		Dims:         t.Dims(),
		Nodes:        t.Nodes(),
		Phases:       t.NDims() + 2,
		MessagesSent: res.MessagesSent,
	}, nil
}

// ArbitraryReport is the outcome of a virtual-node run on a torus
// whose dimensions need not be multiples of four.
type ArbitraryReport struct {
	*Report
	// PaddedDims is the multiple-of-four shape the algorithm ran on.
	PaddedDims []int
	// RealNodes is the number of participating (non-virtual) nodes.
	RealNodes int
	// HostSerializedSteps is the step count after serializing each
	// host's virtual-tenant messages under the one-port model.
	HostSerializedSteps int
	// MaxHostLoad is the largest number of messages one host injects
	// in a single step (1 = no overload).
	MaxHostLoad int
}

// AllToAllArbitrary executes the exchange among the nodes of an
// arbitrary torus shape (sizes >= 1, sorted non-increasing) using the
// virtual-node extension of Section 6, verifying that every real node
// receives exactly the blocks of every real origin. It runs on the
// block-level simulator: moving it onto the compiled program needs a
// padded-torus program with virtual relays first.
func AllToAllArbitrary(dims ...int) (*ArbitraryReport, error) {
	vr, err := exchange.RunVirtual(dims, exchange.Options{CheckSteps: true})
	if err != nil {
		return nil, err
	}
	if err := verify.DeliveredSubset(vr.Padded, vr.Run.Buffers, vr.RealNodes); err != nil {
		return nil, err
	}
	rep := reportFrom(vr.Run)
	rep.Dims = dims
	rep.Nodes = len(vr.RealNodes)
	return &ArbitraryReport{
		Report:              rep,
		PaddedDims:          vr.Padded.Dims(),
		RealNodes:           len(vr.RealNodes),
		HostSerializedSteps: vr.HostSerializedSteps,
		MaxHostLoad:         vr.MaxHostLoad,
	}, nil
}

// Predict returns the closed-form Table 1 measure of the proposed
// algorithm for the given torus shape.
func Predict(dims ...int) Measure { return costmodel.ProposedND(dims) }

// ScheduleFor builds the complete communication schedule of the
// proposed algorithm on t without simulating any data movement —
// O(steps · nodes) time — and verifies its contention-freedom and
// one-port compliance. Suitable for tori far larger than the
// simulating entry points can hold (tested to 65,536 nodes).
func ScheduleFor(t *Torus) (*Schedule, error) {
	sc, err := exchange.GenerateStructural(t)
	if err != nil {
		return nil, err
	}
	if err := sc.Check(); err != nil {
		return nil, err
	}
	return sc, nil
}

// Algorithm selects an exchange algorithm for Compare.
type Algorithm string

// Available algorithms.
const (
	// Proposed is the Suh–Shin n+2-phase message-combining exchange.
	Proposed Algorithm = "proposed"
	// Direct is the non-combining baseline: N−1 single-block sends.
	// Its Blocks include the wormhole link-sharing serialization of
	// the simultaneous id-shift worms.
	Direct Algorithm = "direct"
	// Ring is the stride-1 dimension-ordered combining baseline.
	Ring Algorithm = "ring"
	// Factored is the prime-factor multiphase combining baseline
	// (minimum-startup class, arbitrary sizes); its Blocks include
	// wormhole link-sharing serialization.
	Factored Algorithm = "factored"
	// LogTime is the power-of-two minimum-startup baseline [9].
	LogTime Algorithm = "logtime"
)

// Algorithms lists every registered algorithm name Compare accepts,
// sorted.
func Algorithms() []string { return algorithm.Names() }

// Compare executes the chosen algorithm on dims and returns its
// measured costs. Every algorithm takes the same path: its registered
// builder emits a schedule.Schedule, and the shared executor in
// internal/exec validates each step (one-port always; wormhole
// link-disjointness unless the step declares link time-sharing, which
// is then charged as a serialization factor on Blocks), replays the
// block movement of payload-annotated schedules, verifies delivery,
// and derives the Measure. Proposed requires multiple-of-four dims;
// Direct, Ring and Factored accept any torus; LogTime needs
// power-of-two dims.
func Compare(alg Algorithm, dims ...int) (Measure, error) {
	t, err := topology.New(dims...)
	if err != nil {
		return Measure{}, err
	}
	pg, err := replayProgram(string(alg), t)
	if err != nil {
		return Measure{}, err
	}
	return pg.Measure(), nil
}

// Pair identifies one personalized message of a sparse exchange.
type Pair struct {
	Src, Dst int
}

// sparseExchange routes blocks, numbered on real, through the proposed
// schedule on padded with per-step contention checking, and verifies
// that every node ends holding exactly the blocks addressed to it. It
// backs every sparse entry point: traffic.New rejects out-of-range and
// duplicate blocks in real's numbering, and real's coordinates map onto
// padded (the identity when padded is real), where virtual relays
// originate and receive nothing.
func sparseExchange(real, padded *Torus, blocks []block.Block) (*exchange.Result, error) {
	if _, err := traffic.New(real.Nodes(), blocks); err != nil {
		return nil, err
	}
	routed := blocks
	if padded != real {
		routed = make([]block.Block, len(blocks))
		for i, b := range blocks {
			routed[i] = block.Block{
				Origin: padded.ID(real.CoordOf(b.Origin)),
				Dest:   padded.ID(real.CoordOf(b.Dest)),
			}
		}
	}
	res, err := exchange.RunSparse(padded, routed, exchange.Options{CheckSteps: true})
	if err != nil {
		return nil, err
	}
	if err := verify.DeliveredMatrix(padded, res.Buffers, routed); err != nil {
		return nil, err
	}
	return res, nil
}

// nodeID converts a caller's node number on an n-node torus to a
// NodeID. It range-checks v while it is still an int: NodeID is 32-bit,
// so converting first would wrap 1<<32+1 into range as node 1.
func nodeID(v, n int) (topology.NodeID, error) {
	if v < 0 || v >= n {
		return 0, fmt.Errorf("torusx: node %d out of range for %d nodes", v, n)
	}
	return topology.NodeID(v), nil
}

// pairBlocks converts pairs on an n-node torus to blocks, keeping their
// order. Like nodeID, it range-checks each endpoint as an int.
func pairBlocks(pairs []Pair, n int) ([]block.Block, error) {
	blocks := make([]block.Block, len(pairs))
	for i, pr := range pairs {
		if pr.Src < 0 || pr.Src >= n || pr.Dst < 0 || pr.Dst >= n {
			return nil, fmt.Errorf("torusx: pair %d->%d out of range for %d nodes", pr.Src, pr.Dst, n)
		}
		blocks[i] = block.Block{Origin: topology.NodeID(pr.Src), Dest: topology.NodeID(pr.Dst)}
	}
	return blocks, nil
}

// AllToAllSparse routes an arbitrary set of (source, destination)
// pairs through the proposed schedule: the exchange machinery is
// oblivious to which blocks exist, so partial (many-to-many) traffic
// rides the same n+2 phases. It runs on the block-level simulator with
// per-step contention checking and returns the delivery-verified
// report. Out-of-range and duplicate pairs are rejected.
func AllToAllSparse(t *Torus, pairs []Pair) (*Report, error) {
	blocks, err := pairBlocks(pairs, t.Nodes())
	if err != nil {
		return nil, err
	}
	res, err := sparseExchange(t, t, blocks)
	if err != nil {
		return nil, err
	}
	return reportFrom(res), nil
}

// AllToAllSparseArbitrary routes a sparse pair list among the nodes of
// an arbitrary torus shape (sizes not necessarily multiples of four)
// via the Section 6 virtual-node extension: pairs are expressed in the
// real torus's node numbering, mapped onto the padded multiple-of-four
// torus, routed by the unmodified schedule (virtual nodes relay but
// originate nothing), and delivery is verified on the padded torus.
// Out-of-range and duplicate pairs are rejected with an error.
func AllToAllSparseArbitrary(dims []int, pairs []Pair) (*Report, error) {
	real, err := topology.New(dims...)
	if err != nil {
		return nil, err
	}
	if !real.SortedNonIncreasing() {
		return nil, fmt.Errorf("torusx: dimensions %v must be non-increasing", dims)
	}
	padded, err := topology.New(exchange.PadDims(dims)...)
	if err != nil {
		return nil, err
	}
	blocks, err := pairBlocks(pairs, real.Nodes())
	if err != nil {
		return nil, err
	}
	res, err := sparseExchange(real, padded, blocks)
	if err != nil {
		return nil, err
	}
	rep := reportFrom(res)
	rep.Dims = dims
	rep.Nodes = real.Nodes()
	return rep, nil
}

// ExchangeData performs a complete exchange of real payloads:
// data[i][j] is the payload node i holds for node j, and the result out
// satisfies out[i][j] = data[j][i]. It replays the proposed exchange's
// compiled program once and applies the delivered block ids to the
// payloads: the block from origin o that the replay delivers to node v
// carries data[o][v]. The payload slices are shared, not copied.
func ExchangeData(t *Torus, data [][][]byte) ([][][]byte, error) {
	n := t.Nodes()
	if len(data) != n {
		return nil, fmt.Errorf("torusx: %d payload rows for %d nodes", len(data), n)
	}
	for i, row := range data {
		if len(row) != n {
			return nil, fmt.Errorf("torusx: node %d has %d payloads, want %d", i, len(row), n)
		}
	}
	b, err := algorithm.For(proposedProgram)
	if err != nil {
		return nil, err
	}
	pg, err := algorithm.BuildProgram(b, t, exec.Options{})
	if err != nil {
		return nil, err
	}
	ids := make([]int32, pg.DeliverySize())
	arena := pg.AcquireArena()
	if err := pg.ReplayInto(arena, ids, exec.Options{}); err != nil {
		return nil, err
	}
	pg.ReleaseArena(arena)
	out := make([][][]byte, n)
	for v := range out {
		out[v] = make([][]byte, n)
		for _, id := range ids[pg.DeliveryOffset(v):pg.DeliveryOffset(v+1)] {
			o := int(id) / n
			out[v][o] = data[o][v]
		}
	}
	return out, nil
}

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
//   - AllToAllArbitrary:   run on tori whose dimensions are not
//     multiples of four, via the paper's virtual-node extension.
//   - AllToAllSparse:      route an arbitrary traffic matrix through
//     the same schedule, as a compiled sparse program.
//   - ExchangeData:        apply the compiled exchange to real
//     per-pair payloads.
//   - ScheduleFor:         build the full schedule without simulating
//     data and check every step with exec.Compile (tested to 65,536
//     nodes).
//   - Predict/Completion:  the closed-form cost model of Table 1 and
//     the machine-parameter completion-time conversion.
//   - Compare:             measured costs of the executable baselines
//     (Direct, Ring, Factored, LogTime) next to the proposed
//     algorithm, every one lowered to the schedule IR and run through
//     the same executor (internal/algorithm + internal/exec).
//   - Broadcast, Scatter, Gather, AllGather, AllReduce (collectives.go):
//     the sibling collectives on the same substrate.
//
// Every exchange replays a program that internal/algorithm builds,
// compiles and caches. Dense exchanges (AllToAll, ExchangeData,
// Compare) replay the full exchange. Sparse traffic (AllToAllSparse,
// AllToAllSparseArbitrary, Scatter, Gather) and the virtual-node
// exchange (AllToAllArbitrary) replay the proposed exchange's sparse
// program, which carries exactly the declared blocks and charges each
// phase boundary with the blocks its busiest node holds; all five
// share one validation and delivery check.
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
	"torusx/internal/topology"
	"torusx/internal/trace"
	"torusx/internal/traffic"
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
	Dims  []int
	Nodes int
	// Phases is the exchange's n+2, on sparse reports too, although a
	// sparse program drops the phases its traffic leaves without steps
	// or charge.
	Phases  int
	Measure Measure
	// NonContiguousSends counts transmissions that were not one
	// contiguous run of the sender's data array (zero in 2D; see
	// EXPERIMENTS.md for the n >= 3 finding). Only AllToAll fills it;
	// sparse reports leave it zero.
	NonContiguousSends int

	// prog is the replayed program, whose schedule is re-planned on the
	// first Schedule or Summary call (nil in a Report no run returned).
	prog *exec.Program
}

// Schedule returns the communication schedule of the run, re-planned
// on the first call (exec.Program.Schedule), and nil if that fails;
// Summary reports the error.
func (r *Report) Schedule() *Schedule {
	if r.prog == nil {
		return nil
	}
	sc, _ := r.prog.Schedule()
	return sc
}

// Summary renders a per-step overview of the run's schedule.
func (r *Report) Summary() string {
	if r.prog == nil {
		return "(no schedule recorded)"
	}
	sc, err := r.prog.Schedule()
	if err != nil {
		return fmt.Sprintf("(schedule unavailable: %v)", err)
	}
	return trace.Summary(sc)
}

// Completion converts the report's measured costs into wall-clock
// microseconds under the given machine parameters.
func (r *Report) Completion(p CostParams) float64 { return p.Completion(r.Measure) }

// proposedProgram is the registry name of the payload-carrying build
// of the proposed exchange (exchange.EmitPayload, the dense builder
// held to the block-level simulator), the program every exchange entry
// point replays, dense or sparse.
const proposedProgram = "proposed-sim"

// replayProgram resolves alg's compiled program on f through the
// process-wide program cache and replays it once on the program's arena,
// which re-checks that every node received exactly its blocks.
func replayProgram(alg string, f topology.Fabric) (*exec.Program, error) {
	b, err := algorithm.For(alg)
	if err != nil {
		return nil, err
	}
	return replayed(algorithm.BuildProgram(b, f, exec.Options{}))
}

// replayed replays pg, unless err is set, once on the program's arena,
// which re-checks that every node received exactly its blocks.
func replayed(pg *exec.Program, err error) (*exec.Program, error) {
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
// virtual-node extension of Section 6: the full matrix of the real
// nodes rides the proposed exchange's sparse program on the padded
// multiple-of-four torus, whose replay verifies that every real node
// receives exactly the blocks of every real origin. The host figures
// serialize the padded schedule onto the real hosts
// (exchange.HostLoads).
func AllToAllArbitrary(dims ...int) (*ArbitraryReport, error) {
	real, padded, err := exchange.VirtualTori(dims)
	if err != nil {
		return nil, err
	}
	rep, err := sparseReport(real, padded, traffic.Full(real.Nodes()).Blocks())
	if err != nil {
		return nil, err
	}
	sc, err := rep.prog.Schedule()
	if err != nil {
		return nil, err
	}
	serialized, maxLoad := exchange.HostLoads(real, padded, sc)
	return &ArbitraryReport{
		Report:              rep,
		PaddedDims:          padded.Dims(),
		RealNodes:           real.Nodes(),
		HostSerializedSteps: serialized,
		MaxHostLoad:         maxLoad,
	}, nil
}

// Predict returns the closed-form Table 1 measure of the proposed
// algorithm for the given torus shape.
func Predict(dims ...int) Measure { return costmodel.ProposedND(dims) }

// ScheduleFor builds the complete communication schedule of the
// proposed algorithm on t without simulating any data movement —
// O(steps · nodes) time — and checks every step's contention-freedom
// and one-port compliance with exec.Compile, the check every compiled
// program passes. The compiled program is dropped, not cached.
// Suitable for tori far larger than the simulating entry points can
// hold (tested to 65,536 nodes).
func ScheduleFor(t *Torus) (*Schedule, error) {
	sc, err := schedule.Collect(t, exchange.EmitStructural)
	if err != nil {
		return nil, err
	}
	if _, err := exec.Compile(sc, exec.Options{}); err != nil {
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

// sparseReport routes blocks, numbered on real, through the proposed
// exchange on padded (real itself, or real's sizes rounded up to
// multiples of four), where virtual relays originate and receive
// nothing. It backs every sparse entry point: traffic.New rejects
// out-of-range and duplicate blocks in real's numbering, and the one
// replay of the compiled sparse program verifies that every node ends
// holding exactly the blocks addressed to it.
func sparseReport(real, padded *Torus, blocks []block.Block) (*Report, error) {
	m, err := traffic.New(real.Nodes(), blocks)
	if err != nil {
		return nil, err
	}
	if padded != real {
		routed := make([]block.Block, m.Len())
		for i, b := range m.Blocks() {
			routed[i] = block.Block{
				Origin: padded.ID(real.CoordOf(b.Origin)),
				Dest:   padded.ID(real.CoordOf(b.Dest)),
			}
		}
		if m, err = traffic.New(padded.Nodes(), routed); err != nil {
			return nil, err
		}
	}
	b, err := algorithm.For(proposedProgram)
	if err != nil {
		return nil, err
	}
	pg, err := replayed(algorithm.BuildSparseProgram(b, padded, m, exec.Options{}))
	if err != nil {
		return nil, err
	}
	return &Report{
		Dims:    real.Dims(),
		Nodes:   real.Nodes(),
		Phases:  padded.NDims() + 2,
		Measure: pg.Measure(),
		prog:    pg,
	}, nil
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
// rides the same n+2 phases. It replays the compiled sparse program
// (contention- and one-port-checked at compile), which keeps only the
// transfers, steps and phases the pairs use, and returns the
// delivery-verified report. Out-of-range and duplicate pairs are
// rejected.
func AllToAllSparse(t *Torus, pairs []Pair) (*Report, error) {
	blocks, err := pairBlocks(pairs, t.Nodes())
	if err != nil {
		return nil, err
	}
	return sparseReport(t, t, blocks)
}

// AllToAllSparseArbitrary routes a sparse pair list among the nodes of
// an arbitrary torus shape (sizes not necessarily multiples of four)
// via the Section 6 virtual-node extension: pairs are expressed in the
// real torus's node numbering, mapped onto the padded multiple-of-four
// torus, routed by the unmodified schedule (virtual nodes relay but
// originate nothing), and delivery is verified on the padded torus.
// Out-of-range and duplicate pairs are rejected with an error.
func AllToAllSparseArbitrary(dims []int, pairs []Pair) (*Report, error) {
	real, padded, err := exchange.VirtualTori(dims)
	if err != nil {
		return nil, err
	}
	blocks, err := pairBlocks(pairs, real.Nodes())
	if err != nil {
		return nil, err
	}
	return sparseReport(real, padded, blocks)
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

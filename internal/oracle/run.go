// Package oracle holds the reference engines that tests hold the
// production pipeline to:
//
//   - Run, RunWithBuffers and RunSparse: the paper-following block
//     simulator, which executes the Suh–Shin exchange on per-node data
//     arrays (Buffer) and counts its costs in Table 1's units;
//   - GenerateNaive: the A1 ablation's schedule without the direction
//     split;
//   - RunSPMD: the same exchange as one goroutine per node over
//     channels;
//   - Conservation, Delivered, DeliveredMatrix and ProxyPlacement: the
//     exchange's post-conditions.
//
// Only tests and cmd/aapetab, whose Table 1 measures the paper's costs
// on the independent simulator, import it; TestProductionLinksNoOracle
// in the root package holds every other package to that. It imports
// block, plan, schedule and topology only, so the tests of every other
// package can use it.
//
// The simulator follows the paper's n+2 phases as package exchange
// describes them, over per-node data arrays: between consecutive
// phases every node rearranges its array once, and within a phase each
// transmission should be one contiguous run of it, which the simulator
// counts (Counters.NonContiguousSends).
package oracle

import (
	"fmt"

	"torusx/internal/block"
	"torusx/internal/plan"
	"torusx/internal/schedule"
	"torusx/internal/topology"
)

// Stage selects how far a run proceeds; used to inspect the
// intermediate invariants the paper states between phases.
type Stage int

const (
	// StageAll runs the complete exchange (default).
	StageAll Stage = iota
	// StageGroup stops after the n group phases, when every node holds
	// its group's blocks for its own 4×…×4 submesh.
	StageGroup
	// StageQuad additionally runs phase n+1, when every node holds
	// blocks for its own 2×…×2 submesh.
	StageQuad
)

// Options configures a run.
type Options struct {
	// CheckSteps validates contention-freedom and the one-port model
	// after every step, aborting the run on the first violation.
	CheckSteps bool
	// SkipRearrangeCharges suppresses the per-boundary rearrangement
	// accounting (the buffers are still re-sorted).
	SkipRearrangeCharges bool
	// StopAfter truncates the run after the given stage.
	StopAfter Stage
	// RecordPayloads attaches the dense ids of every transfer's
	// extracted blocks to the recorded schedule (Transfer.Payload),
	// converted as they are recorded, so the shared executor
	// in internal/exec can replay and delivery-verify the run. The
	// registry builds the same schedule with exchange.EmitPayload;
	// this is its test reference.
	RecordPayloads bool
}

// Counters aggregates the cost-model measurements of one run, in the
// units of the paper's Table 1.
type Counters struct {
	Phases int // n + 2
	Steps  int // startup cost in units of t_s

	// SumMaxBlocks is the message-transmission cost in block units:
	// the sum over steps of the largest single message of the step
	// (a step lasts as long as its largest message).
	SumMaxBlocks int
	// SumMaxHops is the propagation cost in hop units: the sum over
	// steps of the step's hop distance.
	SumMaxHops int
	// TotalBlockHops is the aggregate link traffic: sum over transfers
	// of blocks × hops.
	TotalBlockHops int

	// RearrangeBoundaries counts inter-phase rearrangement steps
	// (paper: n+1).
	RearrangeBoundaries int
	// RearrangedBlocksMaxPerNode is the per-node rearrangement cost in
	// block units: the maximum over nodes of the total number of
	// blocks that node rearranged (paper: (n+1)·N).
	RearrangedBlocksMaxPerNode int

	// NonContiguousSends counts extractions that were not a single
	// contiguous run of the sender's data array. The paper's claim (iv)
	// is that this is always zero with the prescribed layouts; the
	// measurement shows it holds for 2D but not for the last steps of
	// the quad and bit phases when n >= 3 (see EXPERIMENTS.md).
	NonContiguousSends int
	// NonContiguousByStep maps "phase/step" (1-based step) to the
	// number of nodes whose send was not one contiguous run there.
	NonContiguousByStep map[string]int
	// ForcedRearrangedBlocksMaxPerNode is the extra rearrangement cost
	// (in blocks, per the busiest node) of gathering non-contiguous
	// send sets before transmission — the measured correction to the
	// paper's (n+1)·N rearrangement claim for n >= 3 (zero in 2D).
	ForcedRearrangedBlocksMaxPerNode int
}

// Result is the outcome of a run.
type Result struct {
	Torus    *topology.Torus
	Buffers  []*Buffer
	Schedule *schedule.Schedule
	Counters Counters
}

// executor carries the mutable state of a run.
type executor struct {
	t      *topology.Torus
	opt    Options
	bufs   []*Buffer
	coords []topology.Coord // coordinate of every node, by id
	groups [][]plan.Move    // group-phase assignment of every node
	sched  *schedule.Schedule
	ctr    Counters
	forced []int // per-node forced-rearrangement block counts
}

// Run executes the complete exchange on t and returns buffers,
// schedule and counters. The torus must have at least two dimensions,
// every dimension a multiple of four, sizes non-increasing.
func Run(t *topology.Torus, opt Options) (*Result, error) {
	if err := t.ValidateForExchange(); err != nil {
		return nil, err
	}
	ex := newExecutor(t, opt, Initial(t))
	if err := ex.run(); err != nil {
		return nil, err
	}
	return ex.result(), nil
}

// RunWithBuffers is Run over caller-provided initial buffers (one per
// node, blocks with arbitrary origin/dest pairs whose dest determines
// routing). RunSparse and tests use it.
func RunWithBuffers(t *topology.Torus, bufs []*Buffer, opt Options) (*Result, error) {
	if err := t.ValidateForExchange(); err != nil {
		return nil, err
	}
	if len(bufs) != t.Nodes() {
		return nil, fmt.Errorf("oracle: %d buffers for %d nodes", len(bufs), t.Nodes())
	}
	ex := newExecutor(t, opt, bufs)
	if err := ex.run(); err != nil {
		return nil, err
	}
	return ex.result(), nil
}

// RunSparse executes the exchange carrying an arbitrary set of blocks
// (a many-to-many personalized exchange): the routing predicates act
// per block, so any traffic matrix rides the same n+2-phase schedule.
// Each block starts at its Origin and is delivered to its Dest;
// RunWithBuffers checks the torus. It is the test reference the
// compiled sparse program (exchange.EmitSparsePayload, pruned) is
// held to; production code replays that program instead.
func RunSparse(t *topology.Torus, blocks []block.Block, opt Options) (*Result, error) {
	bufs := make([]*Buffer, t.Nodes())
	for i := range bufs {
		bufs[i] = NewBuffer(0)
	}
	for _, b := range blocks {
		if int(b.Origin) < 0 || int(b.Origin) >= t.Nodes() || int(b.Dest) < 0 || int(b.Dest) >= t.Nodes() {
			// exchange.EmitSparsePayload's message: their parity
			// test compares errors too.
			return nil, fmt.Errorf("exchange: block %v out of range", b)
		}
		bufs[b.Origin].Add(b)
	}
	return RunWithBuffers(t, bufs, opt)
}

func newExecutor(t *topology.Torus, opt Options, bufs []*Buffer) *executor {
	n := t.Nodes()
	ex := &executor{
		t:      t,
		opt:    opt,
		bufs:   bufs,
		coords: make([]topology.Coord, n),
		groups: make([][]plan.Move, n),
		sched:  &schedule.Schedule{Fabric: t},
	}
	for i := 0; i < n; i++ {
		ex.coords[i] = t.CoordOf(topology.NodeID(i))
		ex.groups[i] = plan.GroupPhases(ex.coords[i])
	}
	ex.forced = make([]int, n)
	return ex
}

func (ex *executor) result() *Result {
	ex.ctr.Phases = len(ex.sched.Phases)
	ex.ctr.Steps = ex.sched.NumSteps()
	ex.ctr.SumMaxBlocks = ex.sched.SumMaxBlocks()
	ex.ctr.SumMaxHops = ex.sched.SumMaxHops()
	for _, b := range ex.bufs {
		if b.RearrangedBlocks > ex.ctr.RearrangedBlocksMaxPerNode {
			ex.ctr.RearrangedBlocksMaxPerNode = b.RearrangedBlocks
		}
	}
	for _, f := range ex.forced {
		if f > ex.ctr.ForcedRearrangedBlocksMaxPerNode {
			ex.ctr.ForcedRearrangedBlocksMaxPerNode = f
		}
	}
	return &Result{Torus: ex.t, Buffers: ex.bufs, Schedule: ex.sched, Counters: ex.ctr}
}

func (ex *executor) run() error {
	nd := ex.t.NDims()
	// Initial layout for group phase 1 — part of the starting data
	// structure, not a charged rearrangement (Section 3.3).
	ex.arrangeGroup(0, false)
	for p := 0; p < nd; p++ {
		if p > 0 {
			ex.arrangeGroup(p, true)
		}
		if err := ex.groupPhase(p); err != nil {
			return err
		}
	}
	if ex.opt.StopAfter == StageGroup {
		return nil
	}
	ex.arrangeQuad()
	if err := ex.quadPhase(); err != nil {
		return err
	}
	if ex.opt.StopAfter == StageQuad {
		return nil
	}
	ex.arrangeBit()
	if err := ex.bitPhase(); err != nil {
		return err
	}
	return nil
}

// groupRemaining returns the number of stride-4 ring hops a block for
// dest must still travel along move m from the holder at coordinate
// self on t before reaching its proxy position in that dimension.
func groupRemaining(t *topology.Torus, self, dest topology.Coord, m plan.Move) int {
	proxyK := (dest[m.Dim]/topology.GroupStride)*topology.GroupStride + self[m.Dim]%topology.GroupStride
	d := proxyK - self[m.Dim]
	if m.Dir == topology.Neg {
		d = -d
	}
	return t.Wrap(m.Dim, d) / topology.GroupStride
}

// arrangeGroup sorts every node's array ascending by remaining ring
// distance for group phase p, so that every send of the phase is a
// contiguous suffix.
func (ex *executor) arrangeGroup(p int, charged bool) {
	for i, buf := range ex.bufs {
		self := ex.coords[i]
		m := ex.groups[i][p]
		key := func(b block.Block) int {
			return groupRemaining(ex.t, self, ex.coords[b.Dest], m)
		}
		if charged && !ex.opt.SkipRearrangeCharges {
			buf.ArrangeByKey(key)
		} else {
			buf.SortByKey(key)
		}
	}
	if charged {
		ex.ctr.RearrangeBoundaries++
	}
}

// groupPhase runs the a1/4 − 1 steps of group phase p.
func (ex *executor) groupPhase(p int) error {
	steps := ex.t.Dim(0)/topology.GroupStride - 1
	ph := schedule.Phase{Name: fmt.Sprintf("group-%d", p+1)}
	if p > 0 && !ex.opt.SkipRearrangeCharges {
		// The boundary before this phase re-sorted all N blocks at
		// every node (arrangeGroup with charging).
		ph.Rearrange = ex.t.Nodes()
	}
	for s := 0; s < steps; s++ {
		step, err := ex.execStep(ph.Name, s, func(i int) (plan.Move, int, func(block.Block) bool) {
			self := ex.coords[i]
			m := ex.groups[i][p]
			pred := func(b block.Block) bool {
				return groupRemaining(ex.t, self, ex.coords[b.Dest], m) > 0
			}
			return m, topology.GroupStride, pred
		})
		if err != nil {
			return err
		}
		ph.Steps = append(ph.Steps, step)
	}
	ex.sched.Phases = append(ex.sched.Phases, ph)
	return nil
}

// grayRank maps a bit string (most significant first) to its position
// in the binary-reflected Gray-code sequence, the array order that
// keeps every step's send set contiguous during the quad and bit
// phases (the paper's B0,B1,B3,B2 arrangement generalized to n
// dimensions).
func grayRank(bits []int) int {
	rank, cur := 0, 0
	for _, b := range bits {
		cur ^= b
		rank = rank<<1 | cur
	}
	return rank
}

// quadBitDiff reports whether dest lies in the other half of the
// 4-window along dim relative to self.
func quadBitDiff(self, dest topology.Coord, dim int) int {
	if (self[dim]%topology.GroupStride)/2 != (dest[dim]%topology.GroupStride)/2 {
		return 1
	}
	return 0
}

// lowBitDiff reports whether dest differs from self in the low bit of
// dim.
func lowBitDiff(self, dest topology.Coord, dim int) int {
	if self[dim]%2 != dest[dim]%2 {
		return 1
	}
	return 0
}

// quadKey orders the array of the node at self into the Gray order of
// its quad-phase step sequence; coords maps node ids to coordinates.
func quadKey(self topology.Coord, coords []topology.Coord) func(block.Block) int {
	order := plan.QuadOrder(self)
	bits := make([]int, len(self))
	return func(b block.Block) int {
		dest := coords[b.Dest]
		for j, dim := range order {
			bits[j] = quadBitDiff(self, dest, dim)
		}
		return grayRank(bits)
	}
}

// bitKey orders the array of the node at self into the Gray order of
// the bit phase's fixed dimension sequence.
func bitKey(self topology.Coord, coords []topology.Coord) func(block.Block) int {
	bits := make([]int, len(self))
	return func(b block.Block) int {
		dest := coords[b.Dest]
		for dim := range bits {
			bits[dim] = lowBitDiff(self, dest, dim)
		}
		return grayRank(bits)
	}
}

// arrangeQuad sorts every node's array into the Gray order of the
// node's quad-phase step sequence.
func (ex *executor) arrangeQuad() {
	for i, buf := range ex.bufs {
		key := quadKey(ex.coords[i], ex.coords)
		if ex.opt.SkipRearrangeCharges {
			buf.SortByKey(key)
		} else {
			buf.ArrangeByKey(key)
		}
	}
	ex.ctr.RearrangeBoundaries++
}

// quadPhase runs the n distance-2 steps of phase n+1.
func (ex *executor) quadPhase() error {
	nd := ex.t.NDims()
	ph := schedule.Phase{Name: "quad"}
	if !ex.opt.SkipRearrangeCharges {
		ph.Rearrange = ex.t.Nodes()
	}
	for s := 1; s <= nd; s++ {
		step, err := ex.execStep(ph.Name, s-1, func(i int) (plan.Move, int, func(block.Block) bool) {
			self := ex.coords[i]
			m := plan.QuadMove(self, s)
			pred := func(b block.Block) bool {
				return quadBitDiff(self, ex.coords[b.Dest], m.Dim) == 1
			}
			return m, 2, pred
		})
		if err != nil {
			return err
		}
		ph.Steps = append(ph.Steps, step)
	}
	ex.sched.Phases = append(ex.sched.Phases, ph)
	return nil
}

// arrangeBit sorts every node's array into the Gray order of the bit
// phase's fixed dimension sequence.
func (ex *executor) arrangeBit() {
	for i, buf := range ex.bufs {
		key := bitKey(ex.coords[i], ex.coords)
		if ex.opt.SkipRearrangeCharges {
			buf.SortByKey(key)
		} else {
			buf.ArrangeByKey(key)
		}
	}
	ex.ctr.RearrangeBoundaries++
}

// bitPhase runs the n distance-1 steps of phase n+2.
func (ex *executor) bitPhase() error {
	nd := ex.t.NDims()
	ph := schedule.Phase{Name: "bit"}
	if !ex.opt.SkipRearrangeCharges {
		ph.Rearrange = ex.t.Nodes()
	}
	for s := 1; s <= nd; s++ {
		step, err := ex.execStep(ph.Name, s-1, func(i int) (plan.Move, int, func(block.Block) bool) {
			self := ex.coords[i]
			m := plan.BitMove(self, s)
			pred := func(b block.Block) bool {
				return lowBitDiff(self, ex.coords[b.Dest], m.Dim) == 1
			}
			return m, 1, pred
		})
		if err != nil {
			return err
		}
		ph.Steps = append(ph.Steps, step)
	}
	ex.sched.Phases = append(ex.sched.Phases, ph)
	return nil
}

// delivery is one extracted message awaiting synchronous delivery.
type delivery struct {
	dst    topology.NodeID
	blocks []block.Block
}

// execStep performs one synchronous step: every node extracts its send
// set according to assign (move, hop distance, predicate), then all
// messages are delivered, each landing at the positions its receiver
// vacated. It returns the structural step for the schedule.
func (ex *executor) execStep(phase string, index int, assign func(i int) (plan.Move, int, func(block.Block) bool)) (schedule.Step, error) {
	n := ex.t.Nodes()
	var step schedule.Step
	deliveries := make([]delivery, 0, n)
	insertPos := make([]int, n)
	for i := 0; i < n; i++ {
		m, hops, pred := assign(i)
		taken, pos, contig := ex.bufs[i].TakeIfAt(pred)
		insertPos[i] = pos
		if len(taken) == 0 {
			continue
		}
		if !contig {
			ex.ctr.NonContiguousSends++
			if ex.ctr.NonContiguousByStep == nil {
				ex.ctr.NonContiguousByStep = make(map[string]int)
			}
			ex.ctr.NonContiguousByStep[fmt.Sprintf("%s/%d", phase, index+1)]++
			// A real machine must gather the scattered runs into one
			// send buffer first: charge rho per moved block.
			ex.forced[i] += len(taken)
		}
		dst := ex.t.MoveID(topology.NodeID(i), m.Dim, hops*int(m.Dir))
		tr := schedule.Transfer{
			Src: topology.NodeID(i), Dst: dst,
			Dim: m.Dim, Dir: m.Dir, Hops: hops, Blocks: len(taken),
		}
		if ex.opt.RecordPayloads {
			tr.Payload = block.IDs(taken, n)
		}
		step.Transfers = append(step.Transfers, tr)
		ex.ctr.TotalBlockHops += len(taken) * hops
		deliveries = append(deliveries, delivery{dst: dst, blocks: taken})
	}
	for _, d := range deliveries {
		buf := ex.bufs[d.dst]
		pos := insertPos[d.dst]
		if pos > buf.Len() {
			pos = buf.Len()
		}
		buf.InsertAt(pos, d.blocks)
	}
	if ex.opt.CheckSteps {
		if err := CheckStep(ex.t, phase, index, &step); err != nil {
			return step, err
		}
	}
	return step, nil
}

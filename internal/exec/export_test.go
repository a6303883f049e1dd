package exec

import (
	"cmp"
	"fmt"
	"slices"

	"torusx/internal/schedule"
)

// IDPage is the size of a payload page: a streamed step whose payloads
// lie back to back in one backing and fill at least this many ids is
// compiled in the builder's memory instead of copied.
const IDPage = 1 << idPageBits

// CheckDescriptorPlan verifies a compiled program's descriptor plan
// against its own transfer table — a test-only hook for the external
// registry sweeps (the algorithm registry cannot be imported from
// package exec's own tests without a cycle). Checked: every replayable
// program carries a plan that passes the decoder's proofs (checkPlan);
// exactly the transfers that are not the final mover of every block
// they carry have a log move, in step order, with the transfer's
// sender and size and an insert window in the receiver's log region;
// each step's element count is its log moves' payload; and BytesMoved
// is the whole executed payload. The transfers are read from sc, the
// schedule p was compiled from.
func CheckDescriptorPlan(p *Program, sc *schedule.Schedule) error {
	if !p.replay {
		return nil
	}
	if p.descBase == nil || len(p.moveOff) != len(p.steps)+1 {
		return fmt.Errorf("replayable program without a descriptor plan")
	}
	if err := p.checkPlan(); err != nil {
		return err
	}
	var steps []*schedule.Step
	sc.EachStep(func(_ *schedule.Phase, _ int, s *schedule.Step) { steps = append(steps, s) })
	if len(steps) != len(p.steps) {
		return fmt.Errorf("schedule has %d steps, program %d", len(steps), len(p.steps))
	}
	lastMove := make([]int, p.numBlocks)
	g := 0
	for _, s := range steps {
		for _, tr := range s.Transfers {
			for _, id := range tr.Payload {
				lastMove[id] = g
			}
			g++
		}
	}
	var bytes int64
	mi := 0
	g = 0
	for si, s := range steps {
		if int(p.moveOff[si]) != mi {
			return fmt.Errorf("step %d log moves start at %d, want %d", si, p.moveOff[si], mi)
		}
		moved := 0
		for _, tr := range s.Transfers {
			payLen := int32(len(tr.Payload))
			bytes += int64(payLen) * 4
			last := true
			for _, id := range tr.Payload {
				last = last && lastMove[id] == g
			}
			g++
			if last {
				continue
			}
			if mi == len(p.moves) {
				return fmt.Errorf("transfer %d forwards blocks but has no log move", g-1)
			}
			m := &p.moves[mi]
			mi++
			if m.src != int32(tr.Src) || m.payLen != payLen {
				return fmt.Errorf("transfer %d: log move %+v, transfer %d->%d carries %d", g-1, *m, tr.Src, tr.Dst, payLen)
			}
			if m.insPos < p.descBase[tr.Dst] || m.insPos+m.payLen > p.descBase[tr.Dst+1] {
				return fmt.Errorf("transfer %d inserts at %d, outside its receiver node %d's log region", g-1, m.insPos, tr.Dst)
			}
			moved += int(payLen)
		}
		if p.steps[si].moved != moved {
			return fmt.Errorf("step %d element count %d, log-moved payload %d", si, p.steps[si].moved, moved)
		}
	}
	if mi != len(p.moves) {
		return fmt.Errorf("%d log moves, %d transfers forward blocks", len(p.moves), mi)
	}
	if bytes != p.BytesMoved() {
		return fmt.Errorf("BytesMoved %d, executed payload %d bytes", p.BytesMoved(), bytes)
	}
	return nil
}

// SetFanOutElems sets the size from which the parallel replay fans a
// step's log moves or the delivery pass out and returns the previous
// value, so tests can push every step and delivery of a small program
// through the fan-out (0) and restore the production constant
// afterwards.
func SetFanOutElems(elems int) int {
	prev := fanOutElems
	fanOutElems = elems
	return prev
}

// StepElems returns each step's log-move element count, the size the
// fan-out threshold is held against.
func StepElems(p *Program) []int {
	out := make([]int, len(p.steps))
	for si := range p.steps {
		out[si] = p.steps[si].moved
	}
	return out
}

// MoveRec is an editable copy of one log move for EncodeWithPlanEdit.
type MoveRec struct{ Src, Len, DescOff, DescLen, InsPos int32 }

// DescRec is an editable copy of one strided descriptor for
// EncodeWithPlanEdit.
type DescRec struct{ Start, Count, BlockLen, Stride int32 }

// EncodeWithPlanEdit encodes p after edit has rewritten copies of its
// log moves (in step order), of its per-node delivery descriptor
// windows (n+1 offsets into the descriptor table) and of the descriptor
// table itself, so tests can write a correctly sealed file whose plan a
// decoder must reject, or one it accepts that replays wrongly. descBase,
// the per-node log-region prefix, is passed for reference. The edits
// land in the encoded bytes, whose core is resealed; p itself is left
// unchanged.
func EncodeWithPlanEdit(p *Program, optFP uint64, edit func(moves []MoveRec, deliverOff, descBase []int32, descs []DescRec)) ([]byte, error) {
	enc, err := EncodeProgram(p, optFP)
	if err != nil {
		return nil, err
	}
	numTraffic := 0
	if !p.fullTraffic {
		numTraffic = len(p.trafficIDs)
	}
	lay := layoutCore(len(p.fab.Fingerprint()), len(p.steps), p.replay, p.n, numTraffic, len(p.moves), len(p.descBacking))
	recs := make([]MoveRec, len(p.moves))
	for i, m := range p.moves {
		recs[i] = MoveRec{m.src, m.payLen, m.descOff, m.descLen, m.insPos}
	}
	descs := make([]DescRec, len(p.descBacking))
	for i, d := range p.descBacking {
		descs[i] = DescRec{d.start, d.count, d.blocklen, d.stride}
	}
	off := append([]int32(nil), p.deliverOff...)
	edit(recs, off, append([]int32(nil), p.descBase...), descs)
	for i, r := range recs {
		putRecord(enc, lay.moves+20*i, logMove{r.Src, r.Len, r.DescOff, r.DescLen, r.InsPos})
	}
	for i, d := range descs {
		putRecord(enc, lay.descs+16*i, xdesc{d.Start, d.Count, d.BlockLen, d.Stride})
	}
	putI32s(enc, lay.deliverOff, off)
	seal(enc[:lay.end])
	return enc, nil
}

// MoveSteps returns the step of each of p's log moves, in their order.
func MoveSteps(p *Program) []int {
	steps := make([]int, len(p.moves))
	for si := range p.steps {
		for i := p.moveOff[si]; i < p.moveOff[si+1]; i++ {
			steps[i] = si
		}
	}
	return steps
}

// ReusesWindows reports whether some insert window of p overlaps
// another: whether p takes the recycled layout.
func ReusesWindows(p *Program) bool {
	ws := make([][2]int32, len(p.moves))
	for i, m := range p.moves {
		ws[i] = [2]int32{m.insPos, m.insPos + m.payLen}
	}
	slices.SortFunc(ws, func(a, b [2]int32) int { return cmp.Compare(a[0], b[0]) })
	for i := 1; i < len(ws); i++ {
		if ws[i][0] < ws[i-1][1] {
			return true
		}
	}
	return false
}

// DeliverPass runs the serial delivery pass alone over a's block log,
// as the end of a replay does: into dst, as ReplayInto's pass, or, with
// dst nil, through the arena's gather scratch into its Result.Buffers,
// as RunArena's. untiled runs the node-at-a-time pass even on a program
// without log moves: the column gather the tiled pass replaced, and the
// reference it is held to. a must have run RunArena once, so that its
// log is final and its buffers exist.
func DeliverPass(p *Program, a *Arena, dst []int32, untiled bool) error {
	deliver := p.deliver
	if untiled {
		deliver = p.deliverNodes
	}
	if dst == nil {
		return deliver(a.log, a.gatherScratch(1), a.out, 0, p.n)
	}
	return deliver(a.log, dst, nil, 0, p.n)
}

// Census counts a program's descriptors by shape: its log moves'
// descriptors, how many of them read one window (count 1) and how many
// read single blocks (blocklen 1), and its delivery descriptors, with
// how many of them read single blocks. Classes is the node classes the
// program was compiled with (Stats().Classes).
type Census struct {
	Moves, MovesCount1, MovesBlocklen1 int
	Deliveries, DeliveriesBlocklen1    int
	Classes                            int
}

// DescriptorCensus takes p's census.
func DescriptorCensus(p *Program) Census {
	c := Census{Classes: p.classes}
	for _, m := range p.moves {
		for _, d := range p.descBacking[m.descOff : m.descOff+m.descLen] {
			c.Moves++
			if d.count == 1 {
				c.MovesCount1++
			}
			if d.blocklen == 1 {
				c.MovesBlocklen1++
			}
		}
	}
	for _, d := range p.descBacking[p.deliverOff[0]:p.deliverOff[p.n]] {
		c.Deliveries++
		if d.blocklen == 1 {
			c.DeliveriesBlocklen1++
		}
	}
	return c
}

// ForceSingletonClasses makes every compile plan with singleton
// classes, keeping a declared lattice's relative order, and returns a
// function that restores class planning. A class compile must write
// the bytes of the compile it forces.
func ForceSingletonClasses() (restore func()) {
	prev := forceSingleton.Swap(true)
	return func() { forceSingleton.Store(prev) }
}

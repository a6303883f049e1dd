package exec

import "fmt"

// CheckDescriptorPlan verifies a compiled program's descriptor plan
// against its own transfer table — a test-only hook for the external
// registry sweeps (the algorithm registry cannot be imported from
// package exec's own tests without a cycle). Checked: every replayable
// program carries a plan that passes the decoder's proofs (checkPlan);
// exactly the transfers that are not the final mover of every block
// they carry have a log move, in step order, with the transfer's
// sender and size and an insert window in the receiver's log region;
// each step's element count is its log moves' payload; and BytesMoved
// is the whole executed payload.
func CheckDescriptorPlan(p *Program) error {
	if !p.replay {
		return nil
	}
	if p.descBase == nil || len(p.moveOff) != len(p.steps)+1 {
		return fmt.Errorf("replayable program without a descriptor plan")
	}
	if err := p.checkPlan(); err != nil {
		return err
	}
	lastMove := make([]int, p.numBlocks)
	g := 0
	for si := range p.steps {
		for ti := range p.steps[si].transfers {
			for _, id := range p.payloadOf(&p.steps[si].transfers[ti]) {
				lastMove[id] = g
			}
			g++
		}
	}
	var bytes int64
	mi := 0
	g = 0
	for si := range p.steps {
		ps := &p.steps[si]
		if int(p.moveOff[si]) != mi {
			return fmt.Errorf("step %d log moves start at %d, want %d", si, p.moveOff[si], mi)
		}
		moved := 0
		for ti := range ps.transfers {
			pt := &ps.transfers[ti]
			bytes += int64(pt.payLen) * 4
			last := true
			for _, id := range p.payloadOf(pt) {
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
			if m.src != pt.src || m.payLen != pt.payLen {
				return fmt.Errorf("transfer %d: log move %+v, transfer %d->%d carries %d", g-1, *m, pt.src, pt.dst, pt.payLen)
			}
			if m.insPos < p.descBase[pt.dst] || m.insPos+m.payLen > p.descBase[pt.dst+1] {
				return fmt.Errorf("transfer %d inserts at %d, outside its receiver node %d's log region", g-1, m.insPos, pt.dst)
			}
			moved += int(pt.payLen)
		}
		if ps.moved != moved {
			return fmt.Errorf("step %d element count %d, log-moved payload %d", si, ps.moved, moved)
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

// EncodeWithPlanEdit encodes p after edit has rewritten copies of its
// log moves (in step order) and of its per-node delivery descriptor
// windows (n+1 offsets into the descriptor table), so tests can write a
// correctly sealed file whose plan a decoder must reject. descBase, the
// per-node log-region prefix, is passed for reference. p itself is left
// unchanged.
func EncodeWithPlanEdit(p *Program, optFP uint64, edit func(moves []MoveRec, deliverOff, descBase []int32)) ([]byte, error) {
	moves, deliverOff := p.moves, p.deliverOff
	defer func() { p.moves, p.deliverOff = moves, deliverOff }()
	recs := make([]MoveRec, len(moves))
	for i, m := range moves {
		recs[i] = MoveRec{m.src, m.payLen, m.descOff, m.descLen, m.insPos}
	}
	off := append([]int32(nil), deliverOff...)
	edit(recs, off, append([]int32(nil), p.descBase...))
	p.moves = make([]logMove, len(recs))
	for i, r := range recs {
		p.moves[i] = logMove{r.Src, r.Len, r.DescOff, r.DescLen, r.InsPos}
	}
	p.deliverOff = off
	return EncodeProgram(p, optFP)
}

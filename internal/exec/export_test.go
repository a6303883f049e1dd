package exec

import "fmt"

// CheckDescriptorPlan verifies a compiled program's descriptor plan
// against its own replay tables, transfer by transfer — a test-only
// hook for the external registry sweeps (the algorithm registry cannot
// be imported from package exec's own tests without a cycle). Checked:
// every replayable program carries a plan; each step's tBase indexes
// the flat dtransfer table contiguously; a payload transfer's
// descriptor window expands to exactly payLen in-bounds log positions
// and its insert window stays in range; an empty transfer carries no
// window at all; each step's element count and BytesMoved are the
// executed payload; and the last-hop windows and residual segments
// tile the delivery layout exactly once (the proof DecodeProgram
// requires of every file).
func CheckDescriptorPlan(p *Program) error {
	if !p.replay {
		return nil
	}
	if p.descBase == nil {
		return fmt.Errorf("replayable program without a descriptor plan")
	}
	logSize := int(p.descBase[p.n])
	var bytes int64
	g := 0
	for si := range p.steps {
		ps := &p.steps[si]
		if int(ps.tBase) != g {
			return fmt.Errorf("step %d tBase %d, want %d", si, ps.tBase, g)
		}
		moved := 0
		for ti := range ps.transfers {
			pt, dt := &ps.transfers[ti], &p.dtransfers[g]
			g++
			if pt.payLen == 0 {
				if dt.descLen != 0 || dt.insPos >= 0 || dt.finalPos >= 0 {
					return fmt.Errorf("empty transfer %d has a descriptor plan %+v", g-1, *dt)
				}
				continue
			}
			pos := expandDescs(p.descBacking[dt.descOff : dt.descOff+dt.descLen])
			if len(pos) != int(pt.payLen) {
				return fmt.Errorf("transfer %d descriptors expand to %d positions, payLen %d", g-1, len(pos), pt.payLen)
			}
			for _, q := range pos {
				if q < 0 || int(q) >= logSize {
					return fmt.Errorf("transfer %d reads log position %d outside [0,%d)", g-1, q, logSize)
				}
			}
			if dt.insPos < 0 || int(dt.insPos)+int(pt.payLen) > logSize {
				return fmt.Errorf("transfer %d insert window escapes the log", g-1)
			}
			bytes += int64(pt.payLen) * 4
			moved += int(pt.payLen)
		}
		if ps.moved != moved {
			return fmt.Errorf("step %d element count %d, executed payload %d", si, ps.moved, moved)
		}
	}
	if bytes != p.BytesMoved() {
		return fmt.Errorf("BytesMoved %d, executed payload %d bytes", p.BytesMoved(), bytes)
	}
	return p.checkDeliveryTiling()
}

// SetFanOutElems sets the step size from which the parallel replay
// fans a step out and returns the previous value, so tests can push
// every step of a small program through the sender buckets (0) and
// restore the production constant afterwards.
func SetFanOutElems(elems int) int {
	prev := fanOutElems
	fanOutElems = elems
	return prev
}

// StepElems returns each step's element count, the size the fan-out
// threshold is held against.
func StepElems(p *Program) []int {
	out := make([]int, len(p.steps))
	for si := range p.steps {
		out[si] = p.steps[si].moved
	}
	return out
}

// EncodeWithDeliveryEdit encodes p after edit has rewritten its
// delivery plan — finalPos is each transfer's last-hop delivery
// position in transfer order (-1 when not last-hop), residPos each
// residual segment's dstPos in segment order, residNode the node each
// segment belongs to — so tests can write a correctly sealed file
// whose plan a decoder must reject. p itself is left unchanged.
func EncodeWithDeliveryEdit(p *Program, optFP uint64, edit func(finalPos, residPos []int32, residNode []int)) ([]byte, error) {
	dts, segs := p.dtransfers, p.tailResid
	defer func() { p.dtransfers, p.tailResid = dts, segs }()
	finalPos := make([]int32, len(dts))
	for i := range dts {
		finalPos[i] = dts[i].finalPos
	}
	residPos := make([]int32, len(segs))
	residNode := make([]int, len(segs))
	for v := 0; v < p.n; v++ {
		for i := p.tailResidOff[v]; i < p.tailResidOff[v+1]; i++ {
			residPos[i], residNode[i] = segs[i].dstPos, v
		}
	}
	edit(finalPos, residPos, residNode)
	p.dtransfers = append([]dtransfer(nil), dts...)
	for i := range p.dtransfers {
		p.dtransfers[i].finalPos = finalPos[i]
	}
	p.tailResid = append([]tailSeg(nil), segs...)
	for i := range p.tailResid {
		p.tailResid[i].dstPos = residPos[i]
	}
	return EncodeProgram(p, optFP)
}

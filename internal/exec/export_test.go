package exec

import "fmt"

// CheckDescriptorPlan verifies a compiled program's descriptor plan
// against its own replay tables, transfer by transfer — a test-only
// hook for the external registry sweeps (the algorithm registry cannot
// be imported from package exec's own tests without a cycle). Checked:
// every replayable program carries a plan; each step's tBase indexes
// the flat dtransfer table contiguously; a payload transfer's
// descriptor window expands to exactly payLen in-bounds log positions
// and its insert/delivery windows stay in range; an empty transfer
// carries no window at all; and BytesMoved is the executed payload.
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
			if dt.finalPos >= 0 && int(dt.finalPos)+int(pt.payLen) > p.DeliverySize() {
				return fmt.Errorf("transfer %d delivery window escapes", g-1)
			}
			bytes += int64(pt.payLen) * 4
		}
	}
	if bytes != p.BytesMoved() {
		return fmt.Errorf("BytesMoved %d, executed payload %d bytes", p.BytesMoved(), bytes)
	}
	return nil
}

package exec

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"runtime/debug"

	"torusx/internal/schedule"
	"torusx/internal/topology"
)

// Lazy schedule materialization. A program replays from its file's
// core alone; only telemetry and explicit Schedule() calls need the
// cold tail. materialize checks the tail's CRC, validates the transfer
// table against the core, parses the cold section — phase names,
// declared block counts, route legs and payload ids — rebuilds a
// semantically identical schedule.Schedule, and re-expands every route
// into the link table the telemetry post-pass reads. It runs at most
// once per program (behind Program.Schedule's sync.Once) and its cost
// is the cost of building schedule structs, not of re-validating or
// re-replaying anything. Nothing it returns views the tail, so a
// mapped tail is read only while materialize runs, under guardTail.

// guardTail runs read, which reads the program's tail, and turns a
// memory fault into an error. A disk-tier tail is a file mapping, and
// a file truncated in place under it faults (SIGBUS) instead of
// reading short, which would otherwise kill the process; the error
// reaches OnTailError like any other rejected tail, so the disk tier
// deletes the file and the next request recompiles.
func guardTail(read func() error) (err error) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			fault, ok := r.(interface{ Addr() uintptr })
			if !ok {
				panic(r)
			}
			err = fmt.Errorf("exec: cold tail unreadable (fault at %#x): program file truncated under its mapping", fault.Addr())
		}
	}()
	return read()
}

func (p *Program) materialize() error {
	body := p.tail[:len(p.tail)-4]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(p.tail[len(body):]); got != want {
		return fmt.Errorf("exec: cold tail checksum mismatch (file %08x, computed %08x): file corrupted", want, got)
	}
	numSteps := len(p.steps)
	r := &creader{b: body}
	stepT := asInt32s(r.take((numSteps + 1) * 4))
	transfers := viewRecords[ptransfer](r.take(p.numTransfers*24), p.numTransfers)
	payload := asInt32s(r.take(p.numPayload * 4))
	blocks := asInt32s(r.take(p.numTransfers * 4))
	sharedBits := r.take((numSteps + 7) / 8)
	r.pad4()
	if r.err != nil {
		return fmt.Errorf("exec: cold section truncated")
	}

	// Transfer table: the step windows partition it, endpoints are node
	// ids, and the payload windows tile [0, numPayload) in transfer
	// order, as Compile lays them out — the count the core's log bound
	// and BytesMoved were taken from, and 0 in a measure-only program.
	if stepT[0] != 0 || int(stepT[numSteps]) != p.numTransfers {
		return fmt.Errorf("exec: cold tail: transfer table does not cover all transfers")
	}
	for si := 0; si < numSteps; si++ {
		if stepT[si+1] < stepT[si] {
			return fmt.Errorf("exec: cold tail: step %d transfer window [%d,%d) invalid", si, stepT[si], stepT[si+1])
		}
	}
	// The link windows tile the expanded routes the same way, which
	// lets telemetry walk the link table in transfer order.
	payEnd, numLinks := 0, 0
	for i := range transfers {
		pt := &transfers[i]
		if int(pt.src) >= p.n || pt.src < 0 || int(pt.dst) >= p.n || pt.dst < 0 {
			return fmt.Errorf("exec: cold tail: transfer %d endpoints %d->%d out of range", i, pt.src, pt.dst)
		}
		if pt.payLen < 0 || pt.linkLen < 0 {
			return fmt.Errorf("exec: cold tail: transfer %d negative window", i)
		}
		if int(pt.payOff) != payEnd {
			return fmt.Errorf("exec: cold tail: transfer %d payload window at %d, want %d", i, pt.payOff, payEnd)
		}
		if int(pt.linkOff) != numLinks {
			return fmt.Errorf("exec: cold tail: link windows do not tile the routes: transfer %d at %d, want %d", i, pt.linkOff, numLinks)
		}
		payEnd += int(pt.payLen)
		numLinks += int(pt.linkLen)
	}
	if payEnd != p.numPayload {
		return fmt.Errorf("exec: cold tail: transfers carry %d payload ids, the core counts %d", payEnd, p.numPayload)
	}
	for _, id := range payload {
		if id < 0 || int(id) >= p.numBlocks {
			return fmt.Errorf("exec: cold section: payload id %d out of range", id)
		}
	}
	// The schedule's payloads are windows of one heap copy of the ids,
	// never views of the file: a mapped file is unmapped when its
	// program is collected, and a caller may keep the schedule longer.
	payload = append([]int32(nil), payload...)

	sc := &schedule.Schedule{Fabric: p.fab, Phases: make([]schedule.Phase, p.coldPhases)}
	stepCursor := 0
	for pi := range sc.Phases {
		name := string(r.take(r.count(1)))
		r.pad4()
		phSteps := int(r.u32())
		rearr := int(r.u32())
		if r.err != nil {
			return fmt.Errorf("exec: cold section truncated in phase table")
		}
		if phSteps < 0 || stepCursor+phSteps > len(p.steps) {
			return fmt.Errorf("exec: cold section: phase %q claims %d steps, %d remain", name, phSteps, len(p.steps)-stepCursor)
		}
		sc.Phases[pi] = schedule.Phase{Name: name, Steps: make([]schedule.Step, phSteps), Rearrange: rearr}
		stepCursor += phSteps
	}
	if stepCursor != len(p.steps) {
		return fmt.Errorf("exec: cold section: phases cover %d steps, program has %d", stepCursor, len(p.steps))
	}

	// Rebuild the transfers with their routes and payload windows, and
	// re-expand the link table: the windows tile it in transfer order,
	// so one route walk reproduces the exact offsets the transfer table
	// recorded.
	nd := p.fab.NDims()
	// A route leg takes 4 bytes of the cold section, and no builder
	// makes a leg longer than the fabric has nodes, so link windows
	// past that bound are corrupt and must not size an allocation.
	if numLinks > p.n*(len(p.tail)/4) {
		return fmt.Errorf("exec: cold section: link windows cover %d hops, more than its route legs can", numLinks)
	}
	linkBacking := make([]int32, numLinks)
	ti := 0
	var segBuf []schedule.Seg
	for si := range p.steps {
		ps := &p.steps[si]
		ph := &sc.Phases[ps.phaseIndex]
		if ps.stepIndex < 0 || ps.stepIndex >= len(ph.Steps) {
			return fmt.Errorf("exec: cold section: step %d index %d outside phase %q", si, ps.stepIndex, ph.Name)
		}
		st := &ph.Steps[ps.stepIndex]
		st.Shared = sharedBits[si>>3]>>uint(si&7)&1 != 0
		ts := transfers[stepT[si]:stepT[si+1]]
		st.Transfers = make([]schedule.Transfer, len(ts))
		for k := range ts {
			pt := &ts[k]
			tr := &st.Transfers[k]
			tr.Src, tr.Dst = topology.NodeID(pt.src), topology.NodeID(pt.dst)
			tr.Blocks = int(blocks[ti])
			nseg := int(r.take(1)[0])
			if r.err != nil {
				return fmt.Errorf("exec: cold section truncated in route table")
			}
			if nseg < 1 {
				return fmt.Errorf("exec: cold section: transfer %d has no route", ti)
			}
			segBuf = segBuf[:0]
			hops := 0
			for s := 0; s < nseg; s++ {
				raw := r.take(4)
				if r.err != nil {
					return fmt.Errorf("exec: cold section truncated in route table")
				}
				dim := int(raw[0])
				dir := topology.Pos
				if raw[1] == 1 {
					dir = topology.Neg
				} else if raw[1] != 0 {
					return fmt.Errorf("exec: cold section: transfer %d leg %d bad direction %d", ti, s, raw[1])
				}
				if dim >= nd {
					return fmt.Errorf("exec: cold section: transfer %d leg %d dimension %d on %d-dim fabric", ti, s, dim, nd)
				}
				h := int(binary.LittleEndian.Uint16(raw[2:]))
				segBuf = append(segBuf, schedule.Seg{Dim: dim, Dir: dir, Hops: h})
				hops += h
			}
			if hops != int(pt.linkLen) {
				return fmt.Errorf("exec: cold section: transfer %d route covers %d hops, link window holds %d", ti, hops, pt.linkLen)
			}
			tr.Dim, tr.Dir, tr.Hops = segBuf[0].Dim, segBuf[0].Dir, segBuf[0].Hops
			if nseg > 1 {
				tr.Segs = append([]schedule.Seg(nil), segBuf...)
			}
			if pt.payLen > 0 {
				end := pt.payOff + pt.payLen
				tr.Payload = payload[pt.payOff:end:end]
			}
			// Route re-expansion into the recorded link window. A leg
			// over an unwired port is a corrupt route, not a walk the
			// fabric may panic in.
			w := int(pt.linkOff)
			cur := tr.Src
			for s, sg := range segBuf {
				if !legWired(p.fab, cur, sg) {
					return fmt.Errorf("exec: cold section: transfer %d leg %d crosses an unwired port", ti, s)
				}
				p.fab.AppendPathLinkIDs(linkBacking[w:w:w+sg.Hops], cur, sg.Dim, sg.Dir, sg.Hops)
				w += sg.Hops
				cur = p.fab.Advance(cur, sg.Dim, sg.Dir, sg.Hops)
			}
			ti++
		}
	}
	r.pad4()
	if r.off != len(r.b) {
		return fmt.Errorf("exec: cold section: %d trailing bytes", len(r.b)-r.off)
	}

	// Publish. Readers reach these through Schedule()'s sync.Once,
	// which orders these writes before any of their reads.
	p.linkBacking = linkBacking
	p.scMat = sc
	return nil
}

// portWiring is implemented by fabrics with unwired ports (the
// dragonfly); every port of any other fabric carries a link.
type portWiring interface {
	Wired(id topology.NodeID, dim int, dir topology.Direction) bool
}

// legWired reports whether the leg sg from src crosses only wired
// ports.
func legWired(f topology.Fabric, src topology.NodeID, sg schedule.Seg) bool {
	w, ok := f.(portWiring)
	if !ok {
		return true
	}
	for h := 0; h < sg.Hops; h++ {
		if !w.Wired(src, sg.Dim, sg.Dir) {
			return false
		}
		src = f.Advance(src, sg.Dim, sg.Dir, 1)
	}
	return true
}

package exec

import (
	"fmt"
	"slices"
	"sync"

	"torusx/internal/block"
	"torusx/internal/obs"
)

// Compile-time reference replay. One serial walk over the lowered
// transfers in schedule order does everything order-sensitive: the
// sender-holds chain via a holder table, and a per-node arrival stamp
// for every block. A node's holdings are always ordered by arrival
// stamp (kept blocks keep their order, new arrivals get fresh larger
// stamps), so each transfer's extraction
// order — the order its blocks arrive at the destination — is its
// payload sorted by stamp, with no buffers materialized at all. The
// same walk
//
//   - emits each transfer's insert/extract events straight into
//     per-node event runs (the per-node counts were taken during
//     Compile's counting pass), which the descriptor planner replays
//     per node in parallel (descriptor.go);
//   - flags the first transfer that forwards a block within the step
//     that delivered it: a block whose stamp at the sender is at least
//     the sender's arrival count when the step began arrived during
//     that step, which the parallel replay cannot execute.
//
// Delivery is then read off the final holder table.
//
// Error parity: coherence errors surface at exactly the point a serial
// walk would hit them (first transfer in schedule order, first block in
// payload order); delivery errors name the lowest node, and within it
// the earliest-arrived misdelivered block; the forwarding verdict names
// the lowest transfer ordinal and, within it, the earliest-arrived
// block.

// opRec is one insert/extract event in a node's event run: a flat copy
// of the transfer fields the planner reads, with the global transfer
// ordinal and three event flags packed into gr (a self-transfer
// extracts and inserts in one event; opHasOrd marks payloads listed out
// of the sender's arrival order — most of proposed-sim's, whose
// receivers insert mid-buffer — whose stamp-sorted copies the ordOff
// side table resolves).
// The records live in per-node runs of one backing array, so each
// node's event replay is a sequential scan.
type opRec struct {
	gr             int32 // ordinal<<opFlagBits | flags
	payOff, payLen int32
}

const (
	opExtract = int32(1) << iota
	opInsert
	opHasOrd
	opFlagBits = 3
)

// compileScratch pools compileReplay's large transient tables across
// compiles. None of the slices carry any cross-use invariant: every
// region a compile reads is fully written by that same compile first
// (hs is refilled, the event backing is written densely, ordSpill is
// refilled from empty, initIDs, ordOff and each payload's sort keys are
// fully overwritten before use), so reuse needs no zeroing.
type compileScratch struct {
	hs        []uint64
	opBacking []opRec
	ordOff    []int32
	ordSpill  []int32
	initIDs   []int32
	keys      []uint64
}

var compileScratchPool = sync.Pool{New: func() any { return new(compileScratch) }}

// idSlotPool pools the descriptor planner's per-worker block-id -> log
// slot tables. Pooled tables hold the all-(-1) invariant: every worker
// resets the slots it touched before releasing its table.
var idSlotPool sync.Pool

func acquireIDSlot(numBlocks int) []int32 {
	if v, ok := idSlotPool.Get().([]int32); ok && cap(v) >= numBlocks {
		return v[:numBlocks]
	}
	s := make([]int32, numBlocks)
	for i := range s {
		s[i] = -1
	}
	return s
}

// compileReplay resolves the traffic matrix to dense ids, validates the
// full replay chain once with the serial reference semantics (each
// transfer's extraction interleaved with the previous transfer's
// insertion), verifies final delivery and builds the descriptor plan,
// whose compaction writes the program's core. After this pass a run is
// a pure, check-free id shuffle. It reads the transfers and payloads
// the lowering pass kept; low.opOff counts each node's insert/extract
// events (from the counting pass).
func (p *Program) compileReplay(opt Options, low *lowered) error {
	rsp := opt.Request.Stage(obs.StageReferenceReplay)
	defer rsp.End()
	n := p.n
	traffic := opt.Traffic
	opOff, payloadBacking, numT := low.opOff, low.payload, len(low.transfers)
	cs := compileScratchPool.Get().(*compileScratch)
	defer compileScratchPool.Put(cs)

	// hs packs each block's holder (high 32 bits: node, -1 absent, -2
	// in flight) and arrival stamp (low 32) into one word, so the
	// random-access walk below pays one cache miss per block where two
	// parallel tables would pay two. A non-absent entry during traffic
	// resolution doubles as the duplicate-block check.
	const (
		hsAbsent   = uint64(0xFFFFFFFF) << 32
		hsInFlight = uint64(0xFFFFFFFE) << 32
	)
	if cap(cs.hs) < p.numBlocks {
		cs.hs = make([]uint64, p.numBlocks)
	}
	hs := cs.hs[:p.numBlocks]
	p.perDest = make([]int32, n)
	arrivals := make([]int32, n) // per-node arrival counter == logical slot count
	initOff := make([]int32, n+1)
	var initIDs []int32 // per-node initial contents in matrix order
	if opt.Traffic == nil {
		// Full all-to-all: the matrix is every dense id in order, so
		// the resolution tables are pure arithmetic — no Block walk, no
		// duplicate or range checks, and the holder table fills with
		// streaming writes (every id is present, so no absent-fill).
		p.fullTraffic = true
		ids := make([]int32, p.numBlocks)
		for i := range ids {
			ids[i] = int32(i)
		}
		p.trafficIDs = ids
		initIDs = ids
		for v := 0; v < n; v++ {
			p.perDest[v] = int32(n)
			arrivals[v] = int32(n)
			initOff[v+1] = int32((v + 1) * n)
			base, hv := v*n, uint64(uint32(v))<<32
			for j := 0; j < n; j++ {
				hs[base+j] = hv | uint64(uint32(j))
			}
		}
	} else {
		for i := range hs {
			hs[i] = hsAbsent
		}
		p.trafficIDs = make([]int32, 0, len(traffic))
		for _, b := range traffic {
			if int(b.Origin) < 0 || int(b.Origin) >= n || int(b.Dest) < 0 || int(b.Dest) >= n {
				return fmt.Errorf("exec: traffic block %v out of range", b)
			}
			id := b.ID(n)
			if hs[id] != hsAbsent {
				return fmt.Errorf("exec: duplicate traffic block %v", b)
			}
			o := int(b.Origin)
			hs[id] = uint64(uint32(o))<<32 | uint64(uint32(arrivals[o]))
			arrivals[o]++
			p.trafficIDs = append(p.trafficIDs, id)
			p.perDest[b.Dest]++
		}
		// Per-node initial contents in matrix order, flat with prefix
		// offsets (arrivals still holds exactly the initial per-node
		// counts here).
		for v := 0; v < n; v++ {
			initOff[v+1] = initOff[v] + arrivals[v]
		}
		if cap(cs.initIDs) < len(p.trafficIDs) {
			cs.initIDs = make([]int32, len(p.trafficIDs))
		}
		initIDs = cs.initIDs[:len(p.trafficIDs)]
		curInit := make([]int32, n)
		copy(curInit, initOff[:n])
		for _, id := range p.trafficIDs {
			o := int(id) / n
			initIDs[curInit[o]] = id
			curInit[o]++
		}
	}

	if cap(cs.ordOff) < numT {
		cs.ordOff = make([]int32, numT)
	}
	ordOff := cs.ordOff[:numT] // ordinal -> ordSpill offset, read only under opHasOrd

	// ordSpill holds stamp-sorted copies of the payloads listed out of
	// arrival order. It is taken from the scratch on the first such
	// payload, with room for every payload id, so it never regrows.
	var ordSpill []int32
	if cap(cs.opBacking) < int(opOff[n]) {
		cs.opBacking = make([]opRec, opOff[n])
	}
	opBacking := cs.opBacking[:opOff[n]]
	curOp := make([]int32, n)
	copy(curOp, opOff[:n])
	// nodeStep is the last step ordinal (+1, 0 = none) that touched each
	// node and stepArr the node's arrival count when that step began:
	// a block held at stamp >= stepArr arrived during the current step.
	nodeStep := make([]int32, n)
	stepArr := make([]int32, n)
	enterStep := func(v int, sv int32) {
		if nodeStep[v] != sv {
			nodeStep[v] = sv
			stepArr[v] = arrivals[v]
		}
	}

	g := 0
	for si := range p.steps {
		ps := &p.steps[si]
		sv := int32(si) + 1
		ts := low.transfers[low.stepT[si]:low.stepT[si+1]]
		for ti := range ts {
			pt := &ts[ti]
			if pt.payLen == 0 {
				g++
				continue
			}
			pay := payloadBacking[pt.payOff : pt.payOff+pt.payLen]
			src, dst := int(pt.src), int(pt.dst)
			enterStep(src, sv)
			enterStep(dst, sv)
			// fwd is the earliest-arrived block of this transfer that
			// arrived at src within the current step, -1 when none.
			fwd, fwdStamp := int32(-1), uint32(0)
			flags := opExtract
			if len(pay) == 1 {
				// Single-block transfer (the whole of a direct exchange):
				// trivially in buffer order, no intra-payload duplicate
				// possible, one holder-table touch.
				id := pay[0]
				h := hs[id]
				if int32(h>>32) != int32(src) {
					return fmt.Errorf("exec: phase %q step %d: node %d transmits %v it does not hold",
						low.phases[ps.phaseIndex], ps.stepIndex, src, block.FromID(id, n))
				}
				if int32(uint32(h)) >= stepArr[src] {
					fwd = id
				}
				hs[id] = uint64(uint32(dst))<<32 | uint64(uint32(arrivals[dst]))
				arrivals[dst]++
			} else {
				// One walk checks the sender-holds chain, marks the blocks in
				// flight, and detects out-of-buffer-order payloads (the
				// extraction order is the payload sorted by arrival stamp at
				// src; the round engine and direct list payloads in that
				// order, while proposed-sim's receivers insert mid-buffer,
				// so most of its payloads need the sorted copy).
				inOrder := true
				prev := int32(-1)
				for _, id := range pay {
					h := hs[id]
					if int32(h>>32) != int32(src) {
						return fmt.Errorf("exec: phase %q step %d: node %d transmits %v it does not hold",
							low.phases[ps.phaseIndex], ps.stepIndex, src, block.FromID(id, n))
					}
					st := int32(uint32(h))
					if st < prev {
						inOrder = false
					} else {
						prev = st
					}
					if st >= stepArr[src] && (fwd < 0 || uint32(st) < fwdStamp) {
						fwd, fwdStamp = id, uint32(st)
					}
					hs[id] = h&0xFFFFFFFF | hsInFlight
				}
				ord := pay
				if !inOrder {
					// Sort stamp<<32|id keys: stamps are unique per
					// sender, so the order is the stamp order.
					keys := cs.keys[:0]
					for _, id := range pay {
						keys = append(keys, uint64(uint32(hs[id]))<<32|uint64(uint32(id)))
					}
					slices.Sort(keys)
					cs.keys = keys
					if ordSpill == nil {
						ordSpill = growI32(cs.ordSpill, len(payloadBacking))[:0]
						cs.ordSpill = ordSpill
					}
					off := len(ordSpill)
					for _, k := range keys {
						ordSpill = append(ordSpill, int32(uint32(k)))
					}
					ord = ordSpill[off : off+len(pay)]
					ordOff[g] = int32(off)
					flags |= opHasOrd
				}
				for _, id := range ord {
					hs[id] = uint64(uint32(dst))<<32 | uint64(uint32(arrivals[dst]))
					arrivals[dst]++
				}
			}
			if fwd >= 0 && p.parallelErr == nil {
				p.parallelErr = fmt.Errorf("exec: phase %q step %d: node %d forwards %v within the step that delivered it; the one-barrier parallel replay cannot execute this schedule (run with Options.Serial)",
					low.phases[ps.phaseIndex], ps.stepIndex, src, block.FromID(fwd, n))
			}
			// Emit the transfer's event records into the per-node runs,
			// right here while its fields are at hand.
			gr := int32(g) << opFlagBits
			if dst == src {
				opBacking[curOp[src]] = opRec{gr: gr | flags | opInsert, payOff: pt.payOff, payLen: pt.payLen}
				curOp[src]++
				g++
				continue
			}
			opBacking[curOp[src]] = opRec{gr: gr | flags, payOff: pt.payOff, payLen: pt.payLen}
			curOp[src]++
			flags = opInsert | flags&opHasOrd
			opBacking[curOp[dst]] = opRec{gr: gr | flags, payOff: pt.payOff, payLen: pt.payLen}
			curOp[dst]++
			g++
		}
	}

	// Delivery: every node must end up holding exactly its share of the
	// matrix, every block addressed to it. hs holds each block's final
	// holder and arrival stamp; mis keeps each node's earliest-arrived
	// misdelivered block as stamp<<32|id.
	held := make([]int32, n)
	mis := make([]int64, n)
	for v := range mis {
		mis[v] = -1
	}
	for _, id := range p.trafficIDs {
		h := hs[id]
		v := int(h >> 32)
		held[v]++
		if int(id)%n != v {
			if k := int64(uint32(h))<<32 | int64(id); mis[v] < 0 || k < mis[v] {
				mis[v] = k
			}
		}
	}
	for v := 0; v < n; v++ {
		if held[v] != p.perDest[v] {
			return fmt.Errorf("exec: node %d holds %d blocks after replay, want %d", v, held[v], p.perDest[v])
		}
		if mis[v] >= 0 {
			return fmt.Errorf("exec: node %d holds misdelivered block %v", v, block.FromID(int32(uint32(mis[v])), n))
		}
	}

	// The descriptor replay plan (the append-only log layout, the log
	// moves' strided gathers and the per-node delivery descriptors),
	// built from this walk's artifacts. See descriptor.go.
	rsp.End()
	psp := opt.Request.Stage(obs.StagePlanDescriptors)
	defer psp.End()
	return p.planDescriptors(low, opBacking, ordOff, ordSpill, initIDs, initOff, hs, arrivals)
}

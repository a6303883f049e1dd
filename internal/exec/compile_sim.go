package exec

import (
	"fmt"
	"slices"
	"sync"

	"torusx/internal/block"
)

// Compile-time reference replay. One serial walk over the lowered
// transfers in schedule order, batch by batch as Compile lowers them,
// does everything order-sensitive: the sender-holds chain via a holder
// table, and a per-node arrival stamp for every block. A node's
// holdings are always ordered by arrival stamp (kept blocks keep their
// order, new arrivals get fresh larger stamps), so each transfer's
// extraction order — the order its blocks arrive at the destination —
// is its payload sorted by stamp, with no buffers materialized at all.
// Node v's initial contents take stamps [0, init[v]) in matrix order,
// or, under a declared lattice, in relative order (classes.go),
// and each transfer into v takes the next payLen stamps there: one
// contiguous stamp segment per arrival. With node classes the walk
// covers the representatives only (replayClassSteps).
//
// The walk rewrites every payload it moves in place as its blocks'
// arrival stamps at the sender, in ascending order, which is all the
// descriptor planner reads of it: the ids are never needed again. On a
// streamed compile a large payload is still in its builder's backing
// (idPages adopts it), so the rewrite lands there, with no copy.
// The same walk rejects the first transfer that forwards a block within
// the step that delivered it: a block whose stamp at the sender is at
// least the sender's arrival count when the step began arrived during
// that step, and every transfer of a step moves at once, so a block can
// leave no earlier than the step after its arrival.
//
// A payload of several blocks between two nodes takes the one-touch
// walk (moveOnce): each block's holder entry is read and written once,
// in payload order. A self-transfer, whose blocks keep their holder,
// takes the exact walk (exactWalk), which marks every block in flight
// before it delivers any, so a block listed twice reads as not held.
// The exact walk is also the error reporter: on any anomaly the
// one-touch walk restores what it wrote, and the exact walk reruns the
// transfer from the same state and names the error.
//
// Delivery is then read off the final holder table, and each node's
// insert/extract events are laid out as per-node runs, which the
// descriptor planner walks per node in parallel (descriptor.go).
//
// Error parity: coherence errors surface at exactly the point a serial
// walk would hit them (first transfer in schedule order, first block in
// payload order); delivery errors name the lowest node, and within it
// the earliest-arrived misdelivered block; a forwarding error names the
// lowest transfer ordinal and, within it, the earliest-arrived block.

// opRec is one insert/extract event in a node's event run: the
// transfer ordinal and two event flags (a self-transfer extracts and
// inserts in one event), packed as ordinal<<opFlagBits | flags. The
// records live in per-node runs of one backing array, so each node's
// event replay is a sequential scan; the transfer table gives the
// event's payload window.
type opRec int32

const (
	opExtract = opRec(1) << iota
	opInsert
	opFlagBits = 2
)

// maxMergeRuns is the most ascending stamp runs a payload listed out of
// arrival order may have for the walk to merge them; a payload with
// more is sorted instead.
const maxMergeRuns = 64

// compileScratch pools the reference replay's large transient tables
// across compiles. None of the slices carry any cross-use invariant:
// every region a compile reads is fully written by that same compile
// first (hs is refilled, the event backing is written densely, and
// each payload's merge keys and run starts are fully overwritten
// before use), so reuse needs no zeroing.
type compileScratch struct {
	hs        []uint64
	ch        []uint32 // the class replay's holder table (see holder)
	opBacking []opRec
	keys, tmp []uint64
	starts    []int32
	side      []int32 // a word per payload block: moveOnce's ids, exactWalk's stamps
}

var compileScratchPool = sync.Pool{New: func() any { return new(compileScratch) }}

// refReplay is the reference replay's state between batches.
type refReplay struct {
	cs *compileScratch
	// hs packs each block's holder (high 32 bits: node, -1 absent, -2
	// in flight) and arrival stamp (low 32) into one word, so the
	// random-access walk pays one cache miss per block where two
	// parallel tables would pay two. A non-absent entry during traffic
	// resolution doubles as the duplicate-block check.
	hs       []uint64
	arrivals []int32 // per-node arrival counter == logical slot count
	// nodeStep is the last step ordinal (+1, 0 = none) that touched each
	// node and stepArr the node's arrival count when that step began: a
	// block held at stamp >= stepArr arrived during the current step.
	nodeStep, stepArr []int32
	init              []int32 // per-node initial block count

	// ch is the class replay's holder table (see holder), in place of
	// hs. The class replay's tables (replayClassSteps), per transfer
	// ordinal: canon and rcanon name the transfer of the sender's and of
	// the receiver's representative in its step, and stampAt the offset
	// of the sender stamps of its canon transfer in stamps. ord holds the
	// current step's representative sends' ids in stamp order, a send's
	// at ordAt. sendAt and recvAt are per-node scratch.
	ch                            []uint32
	canon, rcanon, stampAt, ordAt []int32
	stamps, ord                   []int32
	sendAt, recvAt                []int32
}

const (
	hsAbsent   = uint64(0xFFFFFFFF) << 32
	hsInFlight = uint64(0xFFFFFFFE) << 32
)

// startReplay resolves the traffic matrix to dense ids and fills the
// holder table with every node's initial contents, before the first
// batch that carries payloads is walked.
func (c *compiler) startReplay() error {
	p, n := c.p, c.n
	cs := compileScratchPool.Get().(*compileScratch)
	rr := &refReplay{cs: cs}
	c.rr = rr
	p.perDest = make([]int32, n)
	rr.arrivals = make([]int32, n)
	rr.nodeStep = make([]int32, n)
	rr.stepArr = make([]int32, n)
	arrivals := rr.arrivals
	traffic := c.opt.Traffic
	if traffic == nil && c.cls != nil {
		p.fullTraffic, p.period = true, c.period
		for v := range arrivals {
			p.perDest[v], arrivals[v] = int32(n), int32(n)
		}
		rr.init = slices.Clone(arrivals)
		c.startClassReplay()
		return nil
	}
	if cap(cs.hs) < p.numBlocks {
		cs.hs = make([]uint64, p.numBlocks)
	}
	hs := cs.hs[:p.numBlocks]
	rr.hs = hs
	if traffic == nil {
		// Full all-to-all: the matrix is every dense id in order, so
		// the resolution tables are pure arithmetic — no Block walk, no
		// duplicate or range checks, and the holder table fills with
		// streaming writes (every id is present, so no absent-fill).
		// Under a lattice, node v's block of rank k is B[v, t_v+k], t_v
		// its lattice vector.
		p.fullTraffic, p.period = true, c.period
		var row []int32
		if c.period > 0 {
			row = make([]int32, n)
		}
		for v := 0; v < n; v++ {
			p.perDest[v] = int32(n)
			arrivals[v] = int32(n)
			base, hv := v*n, uint64(uint32(v))<<32
			switch {
			case c.period > 0:
				c.shape.addRow(c.shape.latVec(v, c.period), 0, row)
				for k, d := range row {
					hs[base+int(d)] = hv | uint64(uint32(k))
				}
			default:
				for j := 0; j < n; j++ {
					hs[base+j] = hv | uint64(uint32(j))
				}
			}
		}
		rr.init = slices.Clone(arrivals)
		return nil
	}
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
	rr.init = slices.Clone(arrivals)
	return nil
}

// replaySteps walks lowered steps [s0, s1)' transfers in schedule
// order, over every node.
func (c *compiler) replaySteps(s0, s1 int) error {
	p, n, rr := c.p, c.n, c.rr
	hs, arrivals, nodeStep, stepArr := rr.hs, rr.arrivals, rr.nodeStep, rr.stepArr
	enterStep := func(v int, sv int32) {
		if nodeStep[v] != sv {
			nodeStep[v] = sv
			stepArr[v] = arrivals[v]
		}
	}
	for si := s0; si < s1; si++ {
		ps := &p.steps[si]
		sv := int32(si) + 1
		notHeld := func(src int, id int32) error {
			return fmt.Errorf("exec: phase %q step %d: node %d transmits %v it does not hold",
				c.phases[ps.phaseIndex].name, ps.stepIndex, src, block.FromID(id, n))
		}
		for _, pt := range c.ls.transfers[c.stepT[si]:c.stepEnd(si)] {
			pay := c.ls.pay.at(int(pt.payOff), int(pt.payLen))
			src, dst := int(pt.src), int(pt.dst)
			enterStep(src, sv)
			enterStep(dst, sv)
			// fwd is the earliest-arrived block of this transfer that
			// arrived at src within the current step, -1 when none.
			fwd := int32(-1)
			if len(pay) == 1 {
				// Single-block transfer (the whole of a direct exchange):
				// trivially in buffer order, no intra-payload duplicate
				// possible, one holder-table touch.
				id := pay[0]
				h := hs[id]
				if int32(h>>32) != int32(src) {
					return notHeld(src, id)
				}
				if int32(uint32(h)) >= stepArr[src] {
					fwd = id
				}
				pay[0] = int32(uint32(h))
				hs[id] = uint64(uint32(dst))<<32 | uint64(uint32(arrivals[dst]))
				arrivals[dst]++
			} else {
				ok := false
				if src != dst {
					fwd, ok = rr.moveOnce(pay, pt.src, pt.dst)
				}
				if !ok {
					var miss int32
					if fwd, miss = rr.exactWalk(pay, pt.src, pt.dst); miss >= 0 {
						return notHeld(src, miss)
					}
				}
			}
			if fwd >= 0 {
				return fmt.Errorf("exec: phase %q step %d: node %d forwards %v within the step that delivered it",
					c.phases[ps.phaseIndex].name, ps.stepIndex, src, block.FromID(fwd, n))
			}
		}
	}
	return nil
}

// moveOnce moves pay, a payload of several blocks, from src to dst !=
// src, reading and writing each block's holder entry once. In payload
// order it reads the entry, checks that src holds the block and that
// its stamp ascends, writes the new holder and stamp, and rewrites the
// payload slot as the block's sender stamp, noting the id in scratch.
// The round engine lists every payload in arrival order, so this is
// its whole walk. From the first block out of arrival order on
// (proposed-sim's receivers insert mid-buffer, so most of its payloads
// have one), it reads the entries only; it then keys every block by
// its stamp (stampKeys) and delivers in stamp order, writing each entry
// once more. It returns the earliest-arrived block that arrived at src
// within the current step, -1 when none. On an anomaly — a block src
// does not hold, or one listed twice — it puts back every entry and
// id it wrote, leaving the arrival count as it was, and reports false,
// and exactWalk names the error.
func (rr *refReplay) moveOnce(pay []int32, src, dst int32) (fwd int32, ok bool) {
	hs, cs := rr.hs, rr.cs
	ids := growI32(cs.side, len(pay))
	cs.side = ids
	// The loop keeps the sender's step start and the receiver's arrival
	// count in locals: the compiler would reload them from memory after
	// every store to hs.
	holder, a := uint64(uint32(dst))<<32, rr.arrivals[dst]
	begun, fwdStamp, prev := rr.stepArr[src], int32(0), int32(-1)
	fwd = -1
	moved := len(pay) // the blocks before the first one out of arrival order
	for i, id := range pay {
		h := hs[id]
		if int32(h>>32) != src {
			rr.putBack(pay[:i], ids[:i], min(i, moved), src)
			return -1, false
		}
		st := int32(uint32(h))
		if st >= begun && (fwd < 0 || st < fwdStamp) {
			fwd, fwdStamp = id, st
		}
		ids[i], pay[i] = id, st
		if moved == len(pay) {
			if st < prev {
				moved = i
				continue
			}
			prev = st
			hs[id] = holder | uint64(uint32(a))
			a++
		}
	}
	if moved < len(pay) {
		keys := cs.stampKeys(ids, pay)
		a = rr.arrivals[dst]
		for i, k := range keys {
			if i > 0 && k == keys[i-1] {
				// A block listed twice after the moved prefix: put back
				// every block's sender entry, the prefix's among them.
				for _, k := range keys {
					hs[uint32(k)] = uint64(uint32(src))<<32 | k>>32
				}
				rr.putBack(pay, ids, 0, src)
				return -1, false
			}
			hs[uint32(k)] = holder | uint64(uint32(a))
			a++
		}
		for i, k := range keys {
			pay[i] = int32(k >> 32)
		}
	}
	rr.arrivals[dst] = a
	return fwd, true
}

// putBack undoes moveOnce's walk over pay, whose ids it noted in ids:
// the first moved blocks go back to src at the sender stamps pay holds,
// and pay gets its ids back.
func (rr *refReplay) putBack(pay, ids []int32, moved int, src int32) {
	sent := uint64(uint32(src)) << 32
	for i, id := range ids[:moved] {
		rr.hs[id] = sent | uint64(uint32(pay[i]))
	}
	copy(pay, ids)
}

// exactWalk moves pay from src to dst in two walks: the first checks
// the sender-holds chain in payload order and marks each block in
// flight, so a block listed twice reads as not held; the second
// delivers the blocks in stamp order (stampKeys), rewriting pay as the
// sender stamps. It is the walk of a self-transfer, whose blocks keep
// their holder, and the error reporter of moveOnce's anomalies. It
// returns the earliest-arrived block that arrived at src within the
// current step (-1 none), and the first block src does not hold (-1
// none), at which it stops.
func (rr *refReplay) exactWalk(pay []int32, src, dst int32) (fwd, miss int32) {
	hs, cs := rr.hs, rr.cs
	stamps := growI32(cs.side, len(pay))
	cs.side = stamps
	begun, fwd, fwdStamp := rr.stepArr[src], int32(-1), int32(0)
	for i, id := range pay {
		h := hs[id]
		if int32(h>>32) != src {
			return -1, id
		}
		st := int32(uint32(h))
		if st >= begun && (fwd < 0 || st < fwdStamp) {
			fwd, fwdStamp = id, st
		}
		stamps[i] = st
		hs[id] = h&0xFFFFFFFF | hsInFlight
	}
	holder, a := uint64(uint32(dst))<<32, rr.arrivals[dst]
	for i, k := range cs.stampKeys(pay, stamps) {
		pay[i] = int32(k >> 32)
		hs[uint32(k)] = holder | uint64(uint32(a))
		a++
	}
	rr.arrivals[dst] = a
	return fwd, -1
}

// stampKeys keys pay's blocks by their stamps at the sender, as
// stamp<<32|id, and returns the keys in stamp order; stamps are unique
// per sender, so the key order is the stamp order. A payload out of
// order is a concatenation of a few ascending stamp runs
// (proposed-sim's average 2.7 at 16x16 and 4 at 32x32), which mergeRuns
// orders in a pass per doubling of the run length; past maxMergeRuns
// runs the keys are sorted instead.
func (cs *compileScratch) stampKeys(pay, stamps []int32) []uint64 {
	keys := growU64(cs.keys, len(pay))
	cs.keys = keys
	starts := cs.starts[:0]
	for i, st := range stamps {
		k := uint64(uint32(st))<<32 | uint64(uint32(pay[i]))
		if i == 0 || k < keys[i-1] {
			starts = append(starts, int32(i))
		}
		keys[i] = k
	}
	cs.starts = starts
	if len(starts) > maxMergeRuns {
		slices.Sort(keys)
		return keys
	}
	cs.tmp = growU64(cs.tmp, len(keys))
	return mergeRuns(keys, cs.tmp, starts)
}

// mergeRuns sorts keys, the concatenation of the ascending runs that
// start at starts, by merging adjacent runs pairwise, bottom-up,
// between keys and tmp (of keys' length). It returns whichever holds
// the result. starts is overwritten.
func mergeRuns(keys, tmp []uint64, starts []int32) []uint64 {
	end := int32(len(keys))
	for len(starts) > 1 {
		nb := 0
		for i := 0; i < len(starts); i += 2 {
			lo, mid, hi := starts[i], end, end
			if i+1 < len(starts) {
				mid = starts[i+1]
			}
			if i+2 < len(starts) {
				hi = starts[i+2]
			}
			a, b, out := keys[lo:mid], keys[mid:hi], tmp[lo:hi]
			k := 0
			for len(a) > 0 && len(b) > 0 {
				if b[0] < a[0] {
					out[k] = b[0]
					b = b[1:]
				} else {
					out[k] = a[0]
					a = a[1:]
				}
				k++
			}
			k += copy(out[k:], a)
			copy(out[k:], b)
			starts[nb] = lo
			nb++
		}
		starts = starts[:nb]
		keys, tmp = tmp, keys
	}
	return keys
}

func growU64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

// finishReplay verifies final delivery off the holder table and lays
// out every node's insert/extract events, in schedule order, as the
// per-node runs the descriptor planner walks. It returns the planner's
// view of the lowered tables.
func (c *compiler) finishReplay() (*lowered, error) {
	if c.cls != nil && !c.classDelivered() {
		c.dropClasses()
		if c.replayErr != nil {
			return nil, c.replayErr
		}
	}
	if c.cls != nil {
		return c.layOut(), nil
	}
	p, n, rr := c.p, c.n, c.rr
	// Delivery: every node must end up holding exactly its share of the
	// matrix, every block addressed to it. hs holds each block's final
	// holder and arrival stamp; mis keeps each node's earliest-arrived
	// misdelivered block as stamp<<32|id.
	held := make([]int32, n)
	mis := make([]int64, n)
	for v := range mis {
		mis[v] = -1
	}
	// The matrix's ids: every id under the full matrix, else the
	// declared ones.
	numIDs := len(p.trafficIDs)
	if p.fullTraffic {
		numIDs = p.numBlocks
	}
	for k := 0; k < numIDs; k++ {
		id := int32(k)
		if !p.fullTraffic {
			id = p.trafficIDs[k]
		}
		h := rr.hs[id]
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
			return nil, fmt.Errorf("exec: node %d holds %d blocks after replay, want %d", v, held[v], p.perDest[v])
		}
		if mis[v] >= 0 {
			return nil, fmt.Errorf("exec: node %d holds misdelivered block %v", v, block.FromID(int32(uint32(mis[v])), n))
		}
	}

	return c.layOut(), nil
}

// layOut lays out every node's insert/extract events as per-node runs
// and returns the planner's view of the lowered tables.
func (c *compiler) layOut() *lowered {
	n, rr := c.n, c.rr
	transfers := c.ls.transfers
	opOff := make([]int32, n+1)
	arrOff := make([]int32, n+1)
	for i := range transfers {
		pt := &transfers[i]
		opOff[pt.src+1]++
		if pt.dst != pt.src {
			opOff[pt.dst+1]++
		}
		arrOff[pt.dst+1]++
	}
	for v := 0; v < n; v++ {
		opOff[v+1] += opOff[v]
		arrOff[v+1] += arrOff[v]
	}
	cs := rr.cs
	if cap(cs.opBacking) < int(opOff[n]) {
		cs.opBacking = make([]opRec, opOff[n])
	}
	opBacking := cs.opBacking[:opOff[n]]
	cur := make([]int32, n)
	copy(cur, opOff[:n])
	for g := range transfers {
		pt := &transfers[g]
		gr := opRec(g) << opFlagBits
		if pt.dst == pt.src {
			opBacking[cur[pt.src]] = gr | opExtract | opInsert
			cur[pt.src]++
			continue
		}
		opBacking[cur[pt.src]] = gr | opExtract
		cur[pt.src]++
		opBacking[cur[pt.dst]] = gr | opInsert
		cur[pt.dst]++
	}
	low := &lowered{
		transfers: transfers, stepT: c.stepT, pay: &c.ls.pay,
		ops: opBacking, opOff: opOff, arrOff: arrOff,
		init: rr.init, arrivals: rr.arrivals,
	}
	if cl := c.cls; cl != nil {
		low.cls, low.nodes = cl, cl.reps
		low.canon, low.rcanon = rr.canon, rr.rcanon
		low.stampAt, low.stampBuf = rr.stampAt, rr.stamps
	} else {
		low.nodes = make([]int32, n)
		for v := range low.nodes {
			low.nodes[v] = int32(v)
		}
	}
	return low
}

// lowered is what the descriptor planner reads of the lowered schedule
// and its reference replay: the transfer table of the payload-carrying
// transfers in schedule order, each step's window of it, the sender
// stamps every transfer windows (ascending), the per-node event runs,
// and each node's arrival count, initial blocks and stamp total.
type lowered struct {
	transfers []ptransfer
	stepT     []int32 // step si's transfers are transfers[stepT[si]:stepT[si+1]]
	pay       *idPages
	ops       []opRec
	opOff     []int32 // node v's events are ops[opOff[v]:opOff[v+1]]
	arrOff    []int32 // node v receives arrOff[v+1]-arrOff[v] transfers
	init      []int32 // node v's initial blocks hold stamps [0, init[v])
	arrivals  []int32 // node v's stamps are [0, arrivals[v])

	// nodes are the nodes the planner plans: every node, or with
	// classes cls the representatives. Class tables (see refReplay):
	// canon and rcanon per transfer, and the canon transfers' sender
	// stamps in stampBuf at stampAt.
	nodes             []int32
	cls               *classes
	canon, rcanon     []int32
	stampAt, stampBuf []int32
}

// stamps returns transfer g's payload as its blocks' stamps at its
// sender, ascending: in the lowered ids, which the reference replay
// rewrote, or with classes, those of its sender representative's
// transfer.
func (low *lowered) stamps(g int32) []int32 {
	pt := &low.transfers[g]
	if low.cls == nil {
		return low.pay.at(int(pt.payOff), int(pt.payLen))
	}
	at := low.stampAt[g]
	return low.stampBuf[at : at+pt.payLen]
}

// sc returns the transfer of g's sender representative in g's step.
func (low *lowered) sc(g int32) int32 {
	if low.canon == nil {
		return g
	}
	return low.canon[g]
}

// rc returns the transfer into g's receiver's representative in g's
// step.
func (low *lowered) rc(g int32) int32 {
	if low.rcanon == nil {
		return g
	}
	return low.rcanon[g]
}

package exec

import (
	"math/bits"
	"sync"

	"torusx/internal/par"
)

// Zero-copy strided-datatype replay: the descriptor plan.
//
// Every node's holdings live in an append-only block log: a block's
// physical position is the log slot its arrival was assigned, fixed
// forever and fully computable at compile time from the reference
// replay's arrival stamps (compile_sim.go). Nothing ever compacts and
// every slot is written once per replay, so a slot read at the end of
// the replay holds what it held at any step after it was written.
//
// A replay therefore has two parts:
//
//   - Log moves. Only a transfer that carries at least one block some
//     later transfer moves again writes the log: at its own step, one
//     strided gather from the sender's log region into a precomputed
//     insert window of the receiver's region (a self-transfer, a
//     rearrangement copy within one node, is the same gather with both
//     in one region).
//   - One delivery pass. A last-hop transfer — the final mover of every
//     block it carries — writes nothing during the steps. Each node's
//     whole delivery range is gathered once, after the last step, by
//     per-node descriptors in final rank order: a block a last-hop
//     transfer delivers is read from the slot its sender held it in,
//     and every other delivery (never moved, or last moved by a log
//     move) from the node's own region. Compile builds these
//     descriptors to expand to exactly the node's delivery count, which
//     DecodeProgram proves. A program without log moves replays
//     without writing arena scratch at all.
//
// The planner works on arrival stamps, never on block ids. The
// reference replay leaves every payload as its blocks' stamps at the
// sender, ascending, and each arrival at a node is one contiguous stamp
// segment there. A log-move segment takes log slots, a last-hop
// segment none, so a block's slot at a node is its stamp there less
// the last-hop arrivals before it: within a segment, consecutive
// stamps are consecutive slots, and each gather is converted a run at
// a time and coalesced run-wise (planDescriptors).

// xdesc is one strided datatype descriptor: count windows of blocklen
// consecutive log slots, window starts stride apart. count == 1 is a
// plain [start, start+blocklen) run. stride may be negative or smaller
// than blocklen: a gather's positions can be any permutation of the
// source region's log slots.
type xdesc struct {
	start, count, blocklen, stride int32
}

// logMove is one log move: descriptors [descOff, descOff+descLen) of
// Program.descBacking read payLen slots of node src's log region, in
// arrival-stamp order, into the insert window [insPos, insPos+payLen).
type logMove struct {
	src, payLen, descOff, descLen, insPos int32
}

// gather expands descs against the log into dst, returning the element
// count written. It is the descriptor replay's whole inner loop: a
// scalar loop for blocklen-1 descriptors (single blocks, transposes and
// interleaves, where a copy per element would cost a memmove call
// each), one copy per run, and one copy per window otherwise.
func gather(dst, log []int32, descs []xdesc) int {
	w := 0
	for i := range descs {
		d := &descs[i]
		s, bl, c := int(d.start), int(d.blocklen), int(d.count)
		switch {
		case bl == 1:
			st := int(d.stride)
			out := dst[w : w+c]
			for k := range out {
				out[k] = log[s]
				s += st
			}
			w += c
		case c == 1:
			w += copy(dst[w:], log[s:s+bl])
		default:
			st := int(d.stride)
			for ; c > 0; c-- {
				w += copy(dst[w:], log[s:s+bl])
				s += st
			}
		}
	}
	return w
}

// cursor is a position in a descriptor table: element k of descriptor
// d's expansion. The tiled delivery pass keeps one per node, to gather a
// node's ids a turn at a time.
type cursor struct{ d, k int }

// gather fills dst with the elements descs expand to from c on, exactly
// as gather would write them, and advances c past them. The caller
// never asks for more than remains of the node's descriptors.
func (c *cursor) gather(dst, log []int32, descs []xdesc) {
	for w := 0; w < len(dst); {
		d := &descs[c.d]
		bl, st := int(d.blocklen), int(d.stride)
		size := int(d.count) * bl
		take := min(size-c.k, len(dst)-w)
		if bl == 1 {
			s := int(d.start) + c.k*st
			out := dst[w : w+take]
			for i := range out {
				out[i] = log[s]
				s += st
			}
		} else {
			for k, end := c.k, c.k+take; k < end; {
				s := int(d.start) + k/bl*st + k%bl
				r := min(bl-k%bl, end-k)
				copy(dst[w+k-c.k:], log[s:s+r])
				k += r
			}
		}
		w += take
		if c.k += take; c.k == size {
			c.d, c.k = c.d+1, 0
		}
	}
}

// run is a gather's source log positions [start, start+n).
type run struct{ start, n int32 }

// appendRun appends [start, start+n) to rs, joined to the last run when
// it continues it.
func appendRun(rs []run, start, n int32) []run {
	if k := len(rs) - 1; k >= 0 && rs[k].start+rs[k].n == start {
		rs[k].n += n
		return rs
	}
	return append(rs, run{start, n})
}

// coalesceRuns appends rs — a gather's source log positions as runs in
// gather order, each joined to the last when it continues it (see
// appendRun) — to dst as strided descriptors: consecutive runs of
// equal length with a constant start-to-start delta merge into one
// descriptor, so common permutations (interleaves, transposes of
// contiguous groups) collapse to a handful of descriptors. Descriptors
// already in dst are never merged into, so one buffer can collect many
// gathers' descriptors.
func coalesceRuns(dst []xdesc, rs []run) []xdesc {
	base := len(dst)
	for _, r := range rs {
		if m := len(dst); m > base && dst[m-1].blocklen == r.n {
			last := &dst[m-1]
			if last.count == 1 {
				last.stride = r.start - last.start
				last.count = 2
				continue
			}
			if r.start == last.start+last.count*last.stride {
				last.count++
				continue
			}
		}
		dst = append(dst, xdesc{start: r.start, count: 1, blocklen: r.n})
	}
	return dst
}

// descScratch pools the descriptor planner's transient tables across
// compiles, compileScratch-style: every entry a compile reads it wrote
// first (the worker buffers are refilled from empty and read only
// through the recorded offsets and counts), so reuse needs no zeroing.
type descScratch struct {
	segStamp  []int32     // arrival -> its first stamp at the receiver
	segG      []int32     // arrival -> transfer ordinal
	isLast    []uint8     // ordinal -> no block it carries moves again
	dInsLocal []int32     // ordinal -> node-local insert position
	dDescOff  []int32     // ordinal -> first descriptor in its sender's worker buffer
	dDescCnt  []int32     // ordinal -> descriptor count
	finals    []int32     // each node's final stamps, ascending, at its finalBase offset
	wdescs    []descStore // worker -> its nodes' log-move and delivery descriptors
}

// descChunk is the descriptor count of one descStore chunk (16 KiB).
const descChunk = 1 << 10

// descStore is a planner worker's descriptor buffer. Descriptor counts
// are only known after coalescing, and a slice grown by append
// allocates about four times its final size on the way (large slices
// grow by 1.25x), so the store grows by fixed-size chunks instead and
// never copies: descriptor i is chunks[i/descChunk][i%descChunk].
// runs collects one gather's runs and descs coalesces them before they
// are appended.
type descStore struct {
	chunks [][]xdesc
	n      int
	runs   []run
	descs  []xdesc
}

// appendRuns coalesces rs (see coalesceRuns) onto the store and
// returns the offset and count of the descriptors it appended.
func (st *descStore) appendRuns(rs []run) (off, cnt int32) {
	st.descs = coalesceRuns(st.descs[:0], rs)
	off, cnt = int32(st.n), int32(len(st.descs))
	for r := st.descs; len(r) > 0; {
		c := st.n / descChunk
		if c == len(st.chunks) {
			st.chunks = append(st.chunks, make([]xdesc, descChunk))
		}
		k := copy(st.chunks[c][st.n%descChunk:], r)
		st.n += k
		r = r[k:]
	}
	return off, cnt
}

func (st *descStore) at(i int32) xdesc { return st.chunks[i/descChunk][i%descChunk] }

var descScratchPool = sync.Pool{New: func() any { return new(descScratch) }}

func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growU8(s []uint8, n int) []uint8 {
	if cap(s) < n {
		return make([]uint8, n)
	}
	return s[:n]
}

// segAt returns the arrival in [from, to) whose stamp segment holds
// stamp s: the last one starting at or before s. segStamp[from] <= s.
// Callers walk ascending stamps, so from or the arrival after it is
// tried before the search.
func segAt(segStamp []int32, from, to, s int32) int32 {
	if from+1 == to || segStamp[from+1] > s {
		return from
	}
	from++
	for to-from > 1 {
		m := int32(uint32(from+to) >> 1)
		if segStamp[m] <= s {
			from = m
		} else {
			to = m
		}
	}
	return from
}

// stampPlan maps arrival stamps to log slots once every node's region
// is laid out.
type stampPlan struct {
	*lowered
	segStamp, segG      []int32
	isLast              []uint8
	dInsLocal, descBase []int32
}

// runs appends the log slots of stamps, ascending stamps at node u, to
// rs: initial slots equal their stamps, and a log move's segment
// starts at its insert position, so within a segment slots follow
// stamps. Slots at u are offset by base. A last-hop segment holds no
// slots: a delivery reads it — all of it, as none of its blocks moves
// again — where the segment's sender held it, at the sender stamps its
// payload records, offset by the start of the sender's region.
func (sp *stampPlan) runs(rs []run, u int, base int32, stamps []int32) []run {
	init, from, to := sp.init[u], sp.arrOff[u], sp.arrOff[u+1]
	for i := 0; i < len(stamps); {
		s := stamps[i]
		off, end := base, init
		if s >= init {
			from = segAt(sp.segStamp, from, to, s)
			g, segStart := sp.segG[from], sp.segStamp[from]
			end = sp.arrivals[u]
			if from+1 < to {
				end = sp.segStamp[from+1]
			}
			if sp.isLast[g] != 0 {
				pt := &sp.transfers[g]
				src := sp.pay.at(int(pt.payOff), int(pt.payLen))
				if t := src[0]; len(src) == 1 && t < sp.init[pt.src] {
					rs = appendRun(rs, sp.descBase[pt.src]+t, 1) // direct's every delivery
				} else {
					rs = sp.runs(rs, int(pt.src), sp.descBase[pt.src], src)
				}
				i += int(pt.payLen)
				continue
			}
			off += sp.dInsLocal[g] - segStart
		}
		for ; i < len(stamps) && stamps[i] < end; i++ {
			rs = appendRun(rs, off+stamps[i], 1)
		}
	}
	return rs
}

// planDescriptors lowers the replay to the descriptor plan and writes
// the program's core from low, the lowered tables and the reference
// replay's artifacts. Must run after delivery was verified. Two passes
// parallel over nodes build the plan, and a serial compaction writes
// it into the core:
//
//  1. Per node, in event order, each arrival is recorded as a stamp
//     segment flagged last-hop, and each extraction's stamps clear the
//     flag of every segment they fall in and are marked taken. The
//     node's region is then laid out: initial slots, then each log
//     move's segment (dInsLocal). The stamps never taken are the
//     node's final holdings, in final-stamp order.
//  2. Per node, each log move's sender stamps and then the node's
//     final stamps are converted to slots (stampPlan.runs) and
//     coalesced: the log moves' over node-local slots, the deliveries'
//     over absolute ones.
func (p *Program) planDescriptors(low *lowered) error {
	n := p.n
	pay, numT := low.pay, len(low.transfers)
	ds := descScratchPool.Get().(*descScratch)
	defer descScratchPool.Put(ds)

	segStamp := growI32(ds.segStamp, numT)
	ds.segStamp = segStamp
	segG := growI32(ds.segG, numT)
	ds.segG = segG
	isLast := growU8(ds.isLast, numT)
	ds.isLast = isLast
	dInsLocal := growI32(ds.dInsLocal, numT)
	ds.dInsLocal = dInsLocal
	dDescOff := growI32(ds.dDescOff, numT)
	ds.dDescOff = dDescOff
	dDescCnt := growI32(ds.dDescCnt, numT)
	ds.dDescCnt = dDescCnt
	finals := growI32(ds.finals, len(p.trafficIDs))
	ds.finals = finals
	// Both node passes split the nodes into the same chunks; worker w
	// appends its nodes' descriptors to wdescs[w], and nodeW records
	// each node's worker for the compaction.
	workers := par.Workers()
	for len(ds.wdescs) < par.Width(workers, n) {
		ds.wdescs = append(ds.wdescs, descStore{})
	}
	wdescs := ds.wdescs
	nodeW := make([]int32, n)

	// Final delivery layout: node v's blocks occupy
	// [finalBase[v], finalBase[v+1]) of the flat delivery buffer.
	p.deriveDelivery()
	finalBase := p.finalBase

	// First pass. A node's worker writes only its own arrivals' entries
	// and the flags of the transfers into it.
	nodeLog := make([]int32, n)
	par.ForEachWorker(workers, n, func(w, lo, hi int) {
		maxS := int32(0)
		for v := lo; v < hi; v++ {
			maxS = max(maxS, low.arrivals[v])
		}
		taken := make([]uint64, (maxS+63)/64)
		for v := lo; v < hi; v++ {
			init, next, total := low.init[v], low.init[v], low.arrivals[v]
			base, k := low.arrOff[v], low.arrOff[v]
			words := taken[:(total+63)/64]
			clear(words)
			for _, gr := range low.ops[low.opOff[v]:low.opOff[v+1]] {
				g := int32(gr >> opFlagBits)
				pt := &low.transfers[g]
				if gr&opExtract != 0 {
					a, end := base, init
					for _, s := range pay.at(int(pt.payOff), int(pt.payLen)) {
						words[s>>6] |= 1 << (s & 63)
						if s < end {
							continue
						}
						a = segAt(segStamp, a, k, s)
						isLast[segG[a]] = 0
						end = next
						if a+1 < k {
							end = segStamp[a+1]
						}
					}
				}
				if gr&opInsert != 0 {
					segStamp[k], segG[k], isLast[g] = next, g, 1
					k++
					next += pt.payLen
				}
			}
			slot := init
			for a := base; a < k; a++ {
				if g := segG[a]; isLast[g] == 0 {
					dInsLocal[g] = slot
					slot += low.transfers[g].payLen
				}
			}
			nodeLog[v] = slot

			out := finals[finalBase[v]:finalBase[v+1]]
			m := 0
			for wi, word := range words {
				free := ^word
				if rest := total - int32(wi*64); rest < 64 {
					free &= 1<<rest - 1
				}
				for ; free != 0; free &= free - 1 {
					out[m] = int32(wi*64 + bits.TrailingZeros64(free))
					m++
				}
			}
		}
	})

	// Per-node log regions via the descBase prefix.
	descBase := make([]int32, n+1)
	for v := 0; v < n; v++ {
		descBase[v+1] = descBase[v] + nodeLog[v]
	}
	sp := &stampPlan{lowered: low, segStamp: segStamp, segG: segG, isLast: isLast,
		dInsLocal: dInsLocal, descBase: descBase}

	// Second pass.
	deliverAt := make([]int32, n)
	deliverCnt := make([]int32, n)
	par.ForEachWorker(workers, n, func(w, lo, hi int) {
		descs := &wdescs[w]
		descs.n = 0
		for v := lo; v < hi; v++ {
			nodeW[v] = int32(w)
			for _, gr := range low.ops[low.opOff[v]:low.opOff[v+1]] {
				g := gr >> opFlagBits
				if gr&opExtract == 0 || isLast[g] != 0 {
					continue
				}
				pt := &low.transfers[g]
				descs.runs = sp.runs(descs.runs[:0], v, 0, pay.at(int(pt.payOff), int(pt.payLen)))
				dDescOff[g], dDescCnt[g] = descs.appendRuns(descs.runs)
			}
			descs.runs = sp.runs(descs.runs[:0], v, descBase[v], finals[finalBase[v]:finalBase[v+1]])
			deliverAt[v], deliverCnt[v] = descs.appendRuns(descs.runs)
		}
	})

	// Serial compaction straight into the program's exact-size core:
	// the log moves in step order with descriptors rebased to absolute
	// log positions, then every node's delivery descriptors.
	total, numMoves := 0, 0
	for g := range low.transfers {
		if isLast[g] == 0 {
			total += int(dDescCnt[g])
			numMoves++
		}
	}
	for v := 0; v < n; v++ {
		total += int(deliverCnt[v])
	}
	p.descBase = descBase
	lay, err := p.newCore(numMoves, total)
	if err != nil {
		return err
	}
	core := p.core
	mi, di := 0, 0
	g := 0
	for si := range p.steps {
		putI32(core, lay.moveOff+4*si, int32(mi))
		for ; g < int(low.stepT[si+1]); g++ {
			pt := &low.transfers[g]
			if isLast[g] != 0 {
				continue
			}
			off := di
			descs := &wdescs[nodeW[pt.src]]
			for i := dDescOff[g]; i < dDescOff[g]+dDescCnt[g]; i++ {
				d := descs.at(i)
				d.start += descBase[pt.src]
				putRecord(core, lay.descs+16*di, d)
				di++
			}
			putRecord(core, lay.moves+20*mi, logMove{
				src: pt.src, payLen: pt.payLen,
				descOff: int32(off), descLen: dDescCnt[g],
				insPos: descBase[pt.dst] + dInsLocal[g],
			})
			mi++
		}
	}
	putI32(core, lay.moveOff+4*len(p.steps), int32(mi))
	for v := 0; v < n; v++ {
		putI32(core, lay.deliverOff+4*v, int32(di))
		descs := &wdescs[nodeW[v]]
		for i := deliverAt[v]; i < deliverAt[v]+deliverCnt[v]; i++ {
			putRecord(core, lay.descs+16*di, descs.at(i))
			di++
		}
	}
	putI32(core, lay.deliverOff+4*n, int32(di))
	return nil
}

// deriveReplayStats derives, whenever a program is viewed, each step's
// log-move element count, which decides whether the parallel replay
// fans the step out.
func (p *Program) deriveReplayStats() {
	for si := range p.steps {
		ps := &p.steps[si]
		for _, m := range p.moves[p.moveOff[si]:p.moveOff[si+1]] {
			ps.moved += int(m.payLen)
		}
	}
}

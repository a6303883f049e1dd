package exec

import (
	"sort"
	"sync"

	"torusx/internal/par"
)

// Zero-copy strided-datatype replay: the descriptor plan.
//
// Every node's holdings live in an append-only block log: a block's
// physical position is the log slot its arrival was assigned, fixed
// forever and fully computable at compile time from the reference
// replay's arrival stamps (compile_sim.go). Nothing ever compacts; a
// transfer is one strided gather from the source node's log region into
// a precomputed contiguous window of the destination's region, and a
// self-transfer (a rearrangement copy within one node) is the same
// gather with source and destination in one region.
//
// Last-hop direct delivery: a transfer that is the final mover of every
// block it carries gets a precomputed window in the dense delivery
// layout, so a replay gathers it straight into the delivery buffer (the
// caller's under ReplayInto, the arena's under RunArena) and skips the
// log append. The residual tail segments gather every other delivery —
// blocks never moved, or last moved by a transfer that also carried
// blocks moving on — from the log. Last-hop windows and residual
// segments tile each node's delivery range exactly once, which Compile
// builds and DecodeProgram proves (checkDeliveryTiling). A program
// whose every payload transfer is last-hop is last-hop-only:
// ReplayInto touches no arena scratch at all.
//
// The plan is built by a compile pass parallel over nodes that replays
// the reference replay's per-node event runs.

// xdesc is one strided datatype descriptor: count windows of blocklen
// consecutive log slots, window starts stride apart. count == 1 is a
// plain [start, start+blocklen) run. stride may be negative or smaller
// than blocklen: a gather's positions can be any permutation of the
// source region's log slots.
type xdesc struct {
	start, count, blocklen, stride int32
}

// dtransfer is one transfer's descriptor-mode plan, parallel to the
// ptransfer table (indexed by global transfer ordinal).
type dtransfer struct {
	// descOff/descLen window into Program.descBacking: the gather
	// descriptors covering the transfer's payload positions in the
	// source node's log region, in arrival-stamp order. Zero-length for
	// empty transfers.
	descOff, descLen int32
	// insPos is the absolute log position of the transfer's insert
	// window [insPos, insPos+payLen); -1 for empty transfers.
	insPos int32
	// finalPos, when >= 0, marks a last-hop transfer: this transfer is
	// the final mover of every block it carries, and its payload's
	// final delivery slots are exactly [finalPos, finalPos+payLen) in
	// the flat delivery layout. ReplayInto gathers such transfers
	// straight into the caller's buffer.
	finalPos int32
}

// tailSeg is one contiguous run of a node's residual deliveries
// gathered from the log: descriptors [descOff, descOff+descLen) of
// Program.descBacking expand to the block ids delivered at
// node-relative positions [dstPos, dstPos+len).
type tailSeg struct {
	dstPos, descOff, descLen int32
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

// coalesceDescs folds pos — a payload's source log positions in
// arrival-stamp order — into strided descriptors: maximal +1 runs
// become blocks, and consecutive blocks of equal length with a
// constant start-to-start delta merge into one descriptor, so common
// permutations (interleaves, transposes of contiguous groups) collapse
// to a handful of descriptors.
func coalesceDescs(dst []xdesc, pos []int32) []xdesc {
	i := 0
	for i < len(pos) {
		start := pos[i]
		j := i + 1
		for j < len(pos) && pos[j] == pos[j-1]+1 {
			j++
		}
		bl := int32(j - i)
		if m := len(dst); m > 0 && dst[m-1].blocklen == bl {
			last := &dst[m-1]
			if last.count == 1 {
				last.stride = start - last.start
				last.count = 2
				i = j
				continue
			}
			if start == last.start+last.count*last.stride {
				last.count++
				i = j
				continue
			}
		}
		dst = append(dst, xdesc{start: start, count: 1, blocklen: bl})
		i = j
	}
	return dst
}

// descScratch pools the descriptor planner's transient tables across
// compiles, compileScratch-style: every region a compile reads is
// fully written by that same compile first (lastMove and direct are
// re-initialized over the traffic ids, the worst-case backings are
// written before the compaction reads them through the recorded
// counts), so reuse needs no zeroing.
type descScratch struct {
	lastMove  []int32 // block id -> last moving transfer ordinal
	finalRank []int32 // block id -> rank within its node's deliveries
	direct    []uint8 // block id -> delivered by a last-hop gather
	isLast    []uint8 // ordinal -> final mover of its whole payload
	survAll   []int32 // deliveries bucketed by node (finalBase offsets)
	descWC    []xdesc // worst-case transfer descriptors at payload offsets
	dInsLocal []int32 // ordinal -> node-local insert position
	dDescCnt  []int32 // ordinal -> descriptor count in descWC
	tailRWC   []xdesc // worst-case tailResid descriptors at finalBase offsets
	tailSegWC []tailSeg
}

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

func growDesc(s []xdesc, n int) []xdesc {
	if cap(s) < n {
		return make([]xdesc, n)
	}
	return s[:n]
}

// planDescriptors lowers the replay to the descriptor plan. Inputs are
// the reference replay's artifacts: the per-node event runs
// (opOff/opBacking, with ordOff/ordSpill resolving the rare
// stamp-resorted payloads), the per-node initial contents
// (initIDs/initOff), the final holder/stamp table hs, the per-node
// arrival totals, and each transfer's first-arriving block id
// (firstArr). Must run after delivery was verified.
func (p *Program) planDescriptors(opOff []int32, opBacking []opRec, ordOff, ordSpill, initIDs, initOff []int32,
	hs []uint64, arrivals, firstArr []int32, numT int) {
	n := p.n
	ds := descScratchPool.Get().(*descScratch)
	defer descScratchPool.Put(ds)

	numDeliver := len(p.trafficIDs)
	lastMove := growI32(ds.lastMove, p.numBlocks)
	ds.lastMove = lastMove
	finalRank := growI32(ds.finalRank, p.numBlocks)
	ds.finalRank = finalRank
	direct := growU8(ds.direct, p.numBlocks)
	ds.direct = direct
	isLast := growU8(ds.isLast, numT)
	ds.isLast = isLast
	dInsLocal := growI32(ds.dInsLocal, numT)
	ds.dInsLocal = dInsLocal
	dDescCnt := growI32(ds.dDescCnt, numT)
	ds.dDescCnt = dDescCnt
	survAll := growI32(ds.survAll, numDeliver)
	ds.survAll = survAll
	descWC := growDesc(ds.descWC, len(p.payloadBacking))
	ds.descWC = descWC
	tailRWC := growDesc(ds.tailRWC, numDeliver)
	ds.tailRWC = tailRWC
	if cap(ds.tailSegWC) < numDeliver {
		ds.tailSegWC = make([]tailSeg, numDeliver)
	}
	tailSegWC := ds.tailSegWC[:numDeliver]

	// Final delivery layout: node v's blocks occupy
	// [finalBase[v], finalBase[v+1]) of the flat delivery buffer.
	p.deriveDelivery()
	finalBase := p.finalBase

	// Serial pre-pass: each block's last moving transfer, the last-hop
	// transfers (final mover of their whole payload), and the blocks
	// they deliver directly. Done serially because a transfer's payload
	// spans the src node while the delivery verdict lands on the dst —
	// the parallel per-node walks below only read these tables for ids
	// their own node owns.
	for _, id := range p.trafficIDs {
		lastMove[id] = -1
		direct[id] = 0
	}
	g := 0
	for si := range p.steps {
		ts := p.steps[si].transfers
		for ti := range ts {
			pt := &ts[ti]
			for _, id := range p.payloadBacking[pt.payOff : pt.payOff+pt.payLen] {
				lastMove[id] = int32(g)
			}
			g++
		}
	}
	g = 0
	for si := range p.steps {
		ts := p.steps[si].transfers
		for ti := range ts {
			pt := &ts[ti]
			isLast[g] = 0
			if pt.payLen > 0 {
				all := uint8(1)
				for _, id := range p.payloadBacking[pt.payOff : pt.payOff+pt.payLen] {
					if lastMove[id] != int32(g) {
						all = 0
						break
					}
				}
				isLast[g] = all
				if all != 0 {
					for _, id := range p.payloadBacking[pt.payOff : pt.payOff+pt.payLen] {
						direct[id] = 1
					}
				}
			}
			g++
		}
	}

	// Deliveries bucketed by destination node (matrix order; each
	// node's worker sorts its own segment by final arrival stamp).
	{
		cur := make([]int32, n)
		copy(cur, finalBase[:n])
		for _, id := range p.trafficIDs {
			v := int(id) % n
			survAll[cur[v]] = id
			cur[v]++
		}
	}

	// Parallel pass over nodes: replay each node's event run, assigning
	// append-only log positions, recognizing each extraction's positions
	// as strided descriptors, and building the node's residual tail
	// plan. All cross-node state is read-only or indexed by ids the node
	// owns, so the walks are data-race free.
	nodeLog := make([]int32, n)
	tailResidSegCnt := make([]int32, n)
	tailResidDescCnt := make([]int32, n)
	par.ForEach(0, n, func(lo, hi int) {
		idPos := acquireIDSlot(p.numBlocks) // block id -> log slot at the node in progress
		maxS := 0
		for v := lo; v < hi; v++ {
			if s := int(arrivals[v]); s > maxS {
				maxS = s
			}
		}
		logIDs := make([]int32, maxS) // assignment journal, for the idPos reset
		var physBuf []int32
		var runs []xdesc
		for v := lo; v < hi; v++ {
			cursor := 0
			for _, id := range initIDs[initOff[v]:initOff[v+1]] {
				idPos[id] = int32(cursor)
				logIDs[cursor] = id
				cursor++
			}
			for oi := opOff[v]; oi < opOff[v+1]; oi++ {
				op := &opBacking[oi]
				gr := op.gr
				tg := gr >> opFlagBits
				ord := p.payloadBacking[op.payOff : op.payOff+op.payLen]
				if gr&opHasOrd != 0 {
					o := ordOff[tg]
					ord = ordSpill[o : o+op.payLen]
				}
				if gr&opExtract != 0 {
					physBuf = physBuf[:0]
					for _, id := range ord {
						physBuf = append(physBuf, idPos[id])
					}
					runs = coalesceDescs(runs[:0], physBuf)
					copy(descWC[op.payOff:], runs)
					dDescCnt[tg] = int32(len(runs))
				}
				if gr&opInsert != 0 {
					dInsLocal[tg] = int32(cursor)
					for _, id := range ord {
						idPos[id] = int32(cursor)
						logIDs[cursor] = id
						cursor++
					}
				}
			}
			nodeLog[v] = int32(cursor)

			// The node's final deliveries in final arrival order, their
			// ranks anchoring the last-hop windows; tailResid: those not
			// written by a last-hop gather, as maximal rank-contiguous
			// runs.
			seg := survAll[finalBase[v]:finalBase[v+1]]
			sort.Slice(seg, func(a, b int) bool { return uint32(hs[seg[a]]) < uint32(hs[seg[b]]) })
			for rank, id := range seg {
				finalRank[id] = int32(rank)
			}
			segW, descW := int32(0), int32(0)
			for i := 0; i < len(seg); {
				if direct[seg[i]] != 0 {
					i++
					continue
				}
				start := i
				physBuf = physBuf[:0]
				for i < len(seg) && direct[seg[i]] == 0 {
					physBuf = append(physBuf, idPos[seg[i]])
					i++
				}
				runs = coalesceDescs(runs[:0], physBuf)
				copy(tailRWC[finalBase[v]+descW:], runs)
				tailSegWC[finalBase[v]+segW] = tailSeg{dstPos: int32(start), descOff: descW, descLen: int32(len(runs))}
				segW++
				descW += int32(len(runs))
			}
			tailResidSegCnt[v] = segW
			tailResidDescCnt[v] = descW

			// Restore the pooled table's all-(-1) invariant.
			for s := 0; s < cursor; s++ {
				idPos[logIDs[s]] = -1
			}
		}
		idSlotPool.Put(idPos)
	})

	// Serial compaction into the program's exact-size form: per-node
	// log regions via the descBase prefix, descriptor windows rebased
	// to absolute log positions, and the bytes a replay physically
	// moves.
	descBase := make([]int32, n+1)
	for v := 0; v < n; v++ {
		descBase[v+1] = descBase[v] + nodeLog[v]
	}
	total := 0
	g = 0
	for si := range p.steps {
		ts := p.steps[si].transfers
		for ti := range ts {
			if ts[ti].payLen > 0 {
				total += int(dDescCnt[g])
			}
			g++
		}
	}
	for v := 0; v < n; v++ {
		total += int(tailResidDescCnt[v])
	}
	p.descBacking = make([]xdesc, 0, total)
	p.dtransfers = make([]dtransfer, numT)
	p.lastHopOnly = true
	g = 0
	for si := range p.steps {
		ps := &p.steps[si]
		ps.tBase = int32(g)
		for ti := range ps.transfers {
			pt := &ps.transfers[ti]
			dt := &p.dtransfers[g]
			if pt.payLen == 0 {
				*dt = dtransfer{insPos: -1, finalPos: -1}
				g++
				continue
			}
			off := int32(len(p.descBacking))
			for _, d := range descWC[pt.payOff : pt.payOff+dDescCnt[g]] {
				d.start += descBase[pt.src]
				p.descBacking = append(p.descBacking, d)
			}
			dt.descOff, dt.descLen = off, dDescCnt[g]
			dt.insPos = descBase[pt.dst] + dInsLocal[g]
			dt.finalPos = -1
			if isLast[g] != 0 {
				dt.finalPos = finalBase[pt.dst] + finalRank[firstArr[g]]
			} else {
				p.lastHopOnly = false
			}
			p.descBytes += int64(pt.payLen) * 4
			ps.moved += int(pt.payLen)
			g++
		}
	}
	p.tailResidOff = make([]int32, n+1)
	totalSegs := 0
	for v := 0; v < n; v++ {
		totalSegs += int(tailResidSegCnt[v])
	}
	p.tailResid = make([]tailSeg, 0, totalSegs)
	for v := 0; v < n; v++ {
		p.tailResidOff[v] = int32(len(p.tailResid))
		base := int32(len(p.descBacking))
		for _, d := range tailRWC[finalBase[v] : finalBase[v]+tailResidDescCnt[v]] {
			d.start += descBase[v]
			p.descBacking = append(p.descBacking, d)
		}
		for _, sg := range tailSegWC[finalBase[v] : finalBase[v]+tailResidSegCnt[v]] {
			sg.descOff += base
			p.tailResid = append(p.tailResid, sg)
		}
	}
	p.tailResidOff[n] = int32(len(p.tailResid))
	p.descBase = descBase
}

package exec

import (
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
// The plan is built by two compile passes parallel over nodes: one
// replays the reference replay's per-node event runs, the other lays
// out each node's deliveries once every log region is placed.

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

// coalesceDescs appends pos — a payload's source log positions in
// arrival-stamp order — to dst as strided descriptors: maximal +1 runs
// become blocks, and consecutive blocks of equal length with a
// constant start-to-start delta merge into one descriptor, so common
// permutations (interleaves, transposes of contiguous groups) collapse
// to a handful of descriptors. Descriptors already in dst are never
// merged into, so one buffer can collect many payloads' descriptors.
func coalesceDescs(dst []xdesc, pos []int32) []xdesc {
	base := len(dst)
	i := 0
	for i < len(pos) {
		start := pos[i]
		j := i + 1
		for j < len(pos) && pos[j] == pos[j-1]+1 {
			j++
		}
		bl := int32(j - i)
		if m := len(dst); m > base && dst[m-1].blocklen == bl {
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
// fully written by that same compile first (lastMove and readNode are
// re-initialized over the traffic ids, the worker buffers are refilled
// from empty and read only through the recorded offsets and counts),
// so reuse needs no zeroing.
type descScratch struct {
	lastMove  []int32     // block id -> last moving transfer ordinal
	readNode  []int32     // block id -> node whose log region delivery reads it from
	readPos   []int32     // block id -> node-local log slot delivery reads it from
	isLast    []uint8     // ordinal -> final mover of its whole payload
	survAll   []int32     // deliveries bucketed by node (finalBase offsets)
	dInsLocal []int32     // ordinal -> node-local insert position
	dDescOff  []int32     // ordinal -> first descriptor in its sender's worker buffer
	dDescCnt  []int32     // ordinal -> descriptor count
	wdescs    []descStore // worker -> its nodes' log-move, then delivery, descriptors
}

// descChunk is the descriptor count of one descStore chunk (16 KiB).
const descChunk = 1 << 10

// descStore is a planner worker's descriptor buffer. Descriptor counts
// are only known after coalescing, and a slice grown by append
// allocates about four times its final size on the way (large slices
// grow by 1.25x), so the store grows by fixed-size chunks instead and
// never copies: descriptor i is chunks[i/descChunk][i%descChunk]. run
// is the scratch one payload is coalesced into before it is appended.
type descStore struct {
	chunks [][]xdesc
	n      int
	run    []xdesc
}

// appendRun coalesces pos (see coalesceDescs) onto the store and
// returns the offset and count of the descriptors it appended.
func (st *descStore) appendRun(pos []int32) (off, cnt int32) {
	st.run = coalesceDescs(st.run[:0], pos)
	off = int32(st.n)
	for r := st.run; len(r) > 0; {
		c := st.n / descChunk
		if c == len(st.chunks) {
			st.chunks = append(st.chunks, make([]xdesc, descChunk))
		}
		k := copy(st.chunks[c][st.n%descChunk:], r)
		st.n += k
		r = r[k:]
	}
	return off, int32(len(st.run))
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

// planDescriptors lowers the replay to the descriptor plan and writes
// the program's core. Inputs are the tables the lowering pass kept (its
// transfer table and payload ids, in stamp order) and the reference
// replay's artifacts: the per-node event runs (low.opOff/opBacking),
// the per-node initial contents (initIDs/initOff), the final
// holder/stamp table hs and the per-node arrival totals. Must run after
// delivery was verified.
func (p *Program) planDescriptors(low *lowered, opBacking []opRec, initIDs, initOff []int32,
	hs []uint64, arrivals []int32) error {
	n := p.n
	opOff, pay, numT := low.opOff, low.pay, len(low.transfers)
	ds := descScratchPool.Get().(*descScratch)
	defer descScratchPool.Put(ds)

	numDeliver := len(p.trafficIDs)
	lastMove := growI32(ds.lastMove, p.numBlocks)
	ds.lastMove = lastMove
	readNode := growI32(ds.readNode, p.numBlocks)
	ds.readNode = readNode
	readPos := growI32(ds.readPos, p.numBlocks)
	ds.readPos = readPos
	isLast := growU8(ds.isLast, numT)
	ds.isLast = isLast
	dInsLocal := growI32(ds.dInsLocal, numT)
	ds.dInsLocal = dInsLocal
	dDescOff := growI32(ds.dDescOff, numT)
	ds.dDescOff = dDescOff
	dDescCnt := growI32(ds.dDescCnt, numT)
	ds.dDescCnt = dDescCnt
	survAll := growI32(ds.survAll, numDeliver)
	ds.survAll = survAll
	// Both node passes split the nodes into the same chunks, so worker
	// w appends its nodes' log-move descriptors and then their delivery
	// descriptors to wdescs[w], and nodeW records each node's worker
	// for the compaction.
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

	// Serial pre-pass: each block's last moving transfer, the last-hop
	// transfers (final mover of their whole payload), and the node each
	// delivery is read from — the last-hop sender, else the final
	// holder. Done serially because a transfer's payload spans the src
	// node while the delivery verdict lands on the dst — the parallel
	// per-node walks below only read these tables, or write them for
	// ids their own node extracts or holds.
	for _, id := range p.trafficIDs {
		lastMove[id] = -1
		readNode[id] = id % int32(n)
	}
	for g := range low.transfers {
		pt := &low.transfers[g]
		for _, id := range pay.at(int(pt.payOff), int(pt.payLen)) {
			lastMove[id] = int32(g)
		}
	}
	for g := range low.transfers {
		pt := &low.transfers[g]
		ids := pay.at(int(pt.payOff), int(pt.payLen))
		all := uint8(1)
		for _, id := range ids {
			if lastMove[id] != int32(g) {
				all = 0
				break
			}
		}
		isLast[g] = all
		if all != 0 {
			for _, id := range ids {
				readNode[id] = pt.src
			}
		}
	}

	// Deliveries bucketed by destination node (matrix order; each
	// node's worker reorders its own segment by final arrival stamp).
	{
		cur := make([]int32, n)
		copy(cur, finalBase[:n])
		for _, id := range p.trafficIDs {
			v := int(id) % n
			survAll[cur[v]] = id
			cur[v]++
		}
	}

	// First parallel pass over nodes: replay each node's event run,
	// assigning append-only log positions to the initial contents and
	// to log-move arrivals only, recognizing each log move's extraction
	// positions as strided descriptors, and recording the slot every
	// delivery is read from: a last-hop transfer's blocks where its
	// sender held them, every other delivery where its node holds it at
	// the end. All cross-node state is read-only or indexed by ids the
	// node owns, so the walks are data-race free.
	nodeLog := make([]int32, n)
	par.ForEachWorker(workers, n, func(w, lo, hi int) {
		descs := &wdescs[w]
		descs.n = 0
		idPos := acquireIDSlot(p.numBlocks) // block id -> log slot at the node in progress
		maxS := 0
		for v := lo; v < hi; v++ {
			if s := int(arrivals[v]); s > maxS {
				maxS = s
			}
		}
		logIDs := make([]int32, maxS) // assignment journal, for the idPos reset
		// byStamp places a node's deliveries by final arrival stamp: the
		// stamps at node v are unique and below arrivals[v], so a scatter
		// and one compacting sweep order them with no sort. All -1
		// between nodes; the sweep resets what it reads.
		byStamp := make([]int32, maxS)
		for s := range byStamp {
			byStamp[s] = -1
		}
		var physBuf []int32
		for v := lo; v < hi; v++ {
			nodeW[v] = int32(w)
			cursor := 0
			for _, id := range initIDs[initOff[v]:initOff[v+1]] {
				idPos[id] = int32(cursor)
				logIDs[cursor] = id
				cursor++
			}
			for oi := opOff[v]; oi < opOff[v+1]; oi++ {
				gr := opBacking[oi]
				tg := gr >> opFlagBits
				pt := &low.transfers[tg]
				ord := pay.at(int(pt.payOff), int(pt.payLen))
				if isLast[tg] != 0 {
					if gr&opExtract != 0 {
						for _, id := range ord {
							readPos[id] = idPos[id]
						}
					}
					continue
				}
				if gr&opExtract != 0 {
					physBuf = physBuf[:0]
					for _, id := range ord {
						physBuf = append(physBuf, idPos[id])
					}
					dDescOff[tg], dDescCnt[tg] = descs.appendRun(physBuf)
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

			// The node's deliveries in final arrival order; those it
			// reads from its own region sit where it holds them now (a
			// last-hop self-transfer inserted nothing, so its blocks
			// still sit where it extracted them).
			seg := survAll[finalBase[v]:finalBase[v+1]]
			for _, id := range seg {
				byStamp[uint32(hs[id])] = id
			}
			k := 0
			for s := 0; k < len(seg); s++ {
				id := byStamp[s]
				if id < 0 {
					continue
				}
				byStamp[s] = -1
				seg[k] = id
				k++
				if readNode[id] == int32(v) {
					readPos[id] = idPos[id]
				}
			}

			// Restore the pooled table's all-(-1) invariant.
			for s := 0; s < cursor; s++ {
				idPos[logIDs[s]] = -1
			}
		}
		idSlotPool.Put(idPos)
	})

	// Per-node log regions via the descBase prefix.
	descBase := make([]int32, n+1)
	for v := 0; v < n; v++ {
		descBase[v+1] = descBase[v] + nodeLog[v]
	}

	// Second parallel pass over nodes: each node's delivery descriptors
	// over absolute log positions, in rank order, after the worker's
	// log-move descriptors.
	deliverAt := make([]int32, n)
	deliverCnt := make([]int32, n)
	par.ForEachWorker(workers, n, func(w, lo, hi int) {
		descs := &wdescs[w]
		var physBuf []int32
		for v := lo; v < hi; v++ {
			physBuf = physBuf[:0]
			for _, id := range survAll[finalBase[v]:finalBase[v+1]] {
				physBuf = append(physBuf, descBase[readNode[id]]+readPos[id])
			}
			deliverAt[v], deliverCnt[v] = descs.appendRun(physBuf)
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

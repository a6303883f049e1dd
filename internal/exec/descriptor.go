package exec

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sync"

	"torusx/internal/par"
)

// Zero-copy strided-datatype replay: the descriptor plan.
//
// Every node's holdings live in a block log: a per-node region whose
// first slots hold the node's initial blocks in matrix or relative order
// (classes.go), followed
// by one insert window per log move into the node. Every position is
// fixed at compile time from the reference replay's arrival stamps
// (compile_sim.go), so a replay needs no reset: each run writes every
// window with the values the last run wrote there.
//
// A replay has two parts:
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
// A window has one of two layouts, chosen per program:
//
//   - Append-only: windows follow each other in arrival order after the
//     initial blocks, and a window's slots follow its stamps, so no slot
//     is written twice in a replay.
//   - Recycled: a window's blocks are in death order — sorted, stably,
//     by the step of the transfer that takes them from the receiver,
//     with its final holdings last — so a window dies from its front.
//     A block a last-hop send takes keeps its step's place but never
//     dies, as the delivery pass reads it after the last step. Each
//     window is placed whole, first fit, in space whose blocks all died
//     strictly before the window's step, or else at the end of the
//     region (see place). The initial blocks are never overwritten, and
//     no window is split, so the log moves are the append-only
//     layout's. A program takes this layout only when it shrinks the
//     log by recycleShrink or more.
//
// Either way no window overlaps another window or a log move's read in
// its own step, which checkPlan proves: the parallel replay's one
// barrier per step rests on it, and so does the serial replay's
// agreement with it. Both hold because a step is a synchronous round: a
// block that arrives in a step leaves no earlier than the next, as
// Compile's reference replay enforces.
//
// The planner works on arrival stamps, never on block ids. The
// reference replay leaves every payload as its blocks' stamps at the
// sender, ascending, and each arrival at a node is one contiguous stamp
// segment there. A log-move segment takes log slots, a last-hop segment
// none. A transfer's take from a window at its sender — its blocks that
// lie in one segment — lies at consecutive slots when recycled, and at
// its stamps' offsets in the window when append-only, consecutive
// within each stamp run. One pass over the receivers plans both layouts
// run-wise from the takes (planNodes), and each gather's runs are
// coalesced into descriptors (planDescriptors).

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
	segStamp []int32 // arrival -> its first stamp at the receiver
	segG     []int32 // arrival -> transfer ordinal
	isLast   []uint8 // ordinal -> no block it carries moves again
	dIns     []int32 // ordinal -> node-local insert position of its window
	step     []int32 // ordinal -> its step
	dDescOff []int32 // ordinal -> first descriptor in its receiver's worker buffer
	dDescCnt []int32 // ordinal -> descriptor count
	// takeAt maps an ordinal to the first of its takes in its sender's
	// worker's takes. An ordinal that takes from no window keeps a stale
	// entry, which its readers see past: no take there is its.
	takeAt []int32
	finals []int32    // each node's final stamps, ascending, at its finalBase offset
	work   []planWork // worker -> its nodes' plan and scratch
}

// planWork is a planner worker's buffers: what it plans for its nodes,
// which the compaction and the other workers' later passes read, and
// scratch it refills for each node.
type planWork struct {
	descs   descStore // log moves' and deliveries' descriptors
	members descStore // class members' delivery descriptors (translateDeliveries)
	takes   takeStore // its nodes' takes, in walk order
	byWin   []int32   // its nodes' takes by window, in death order

	count  []int32  // arrival -> its window's takes (bucketTakes)
	region region   // a node's region (place)
	prof   []extent // a window's death groups (place)
	held   []int32  // a node's arrival -> its window's first final slot
	pieces []piece  // a transfer's takes at its sender (planNodes, recycled)
}

// piece is a sender's take as planNodes maps it under the recycled
// layout: payload positions [i, i+n) lie at slots from i+base on.
type piece struct{ i, n, base int32 }

// take is a transfer g taking payload positions [i, i+n) from the
// window of arrival a at its sender, in stamp order; off is their first
// position in the window's death order.
type take struct{ a, g, i, n, off int32 }

// takeChunk is the take count of one takeStore chunk (80 KiB).
const takeChunk = 1 << 12

// takeStore is a planner worker's takes, in fixed-size chunks for the
// reason descStore's are: take k is chunks[k/takeChunk][k%takeChunk].
type takeStore struct {
	chunks [][]take
	n      int32
}

func (ts *takeStore) add(t take) {
	if c := int(ts.n / takeChunk); c == len(ts.chunks) {
		ts.chunks = append(ts.chunks, make([]take, takeChunk))
	}
	ts.chunks[ts.n/takeChunk][ts.n%takeChunk] = t
	ts.n++
}

func (ts *takeStore) at(k int32) *take { return &ts.chunks[k/takeChunk][k%takeChunk] }

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

// recycleShrink is how much the recycled layout must shrink a
// program's block log for the program to take it: to at most
// 1/recycleShrink of the append-only log. A smaller gain is not worth
// the descriptors death order adds to the log moves. Set from the
// sweep in EXPERIMENTS.md ("Block logs that recycle dead windows").
const recycleShrink = 2

// extent is a run of slots in a node's region, after its initial
// blocks: free, or holding blocks no log move reads after step death.
type extent struct{ start, n, death int32 }

// never is the death of blocks the delivery pass reads.
const never = math.MaxInt32

// region is a node's region after its initial blocks, as place lays
// windows into it: its free runs by address, none adjacent to another,
// its runs of blocks that die, in any order, and its end. Slots in
// neither list hold blocks the delivery pass reads, which never die.
type region struct {
	free, dying []extent
	end         int32
}

// place lays a window of size slots, whose death groups prof lists in
// window order, into the region at step: first fit into the space free
// before step, else over free space that ends the region and on past
// its end, else at the end. It returns the window's position.
func (r *region) place(step, size int32, prof []extent) int32 {
	for k := 0; k < len(r.dying); {
		if d := r.dying[k]; d.death < step {
			r.free = addFree(r.free, d.start, d.n)
			r.dying[k] = r.dying[len(r.dying)-1]
			r.dying = r.dying[:len(r.dying)-1]
			continue
		}
		k++
	}
	i := 0
	for i < len(r.free) && r.free[i].n < size {
		i++
	}
	var pos int32
	last := len(r.free) - 1
	switch {
	case i <= last:
		pos = r.free[i].start
		if r.free[i].n == size {
			r.free = slices.Delete(r.free, i, i+1)
		} else {
			r.free[i].start += size
			r.free[i].n -= size
		}
	case last >= 0 && r.free[last].start+r.free[last].n == r.end:
		pos = r.free[last].start
		r.end = pos + size
		r.free = r.free[:last]
	default:
		pos = r.end
		r.end += size
	}
	at := pos
	for _, e := range prof {
		if e.death != never {
			r.dying = append(r.dying, extent{start: at, n: e.n, death: e.death})
		}
		at += e.n
	}
	return pos
}

// addFree adds the run [start, start+n) to free, runs by address,
// merging it with the runs it touches.
func addFree(free []extent, start, n int32) []extent {
	i, _ := slices.BinarySearchFunc(free, start, func(e extent, s int32) int { return cmp.Compare(e.start, s) })
	if i > 0 && free[i-1].start+free[i-1].n == start {
		free[i-1].n += n
		if i < len(free) && start+n == free[i].start {
			free[i-1].n += free[i].n
			free = slices.Delete(free, i, i+1)
		}
		return free
	}
	if i < len(free) && start+n == free[i].start {
		free[i].start = start
		free[i].n += n
		return free
	}
	return slices.Insert(free, i, extent{start: start, n: n})
}

// bucketTakes sorts the worker's takes by the window they take from —
// its nodes' arrivals are [a0, a1) — into byWin, stably, so each
// window's takes come in schedule order: its death order, as a block
// leaves its node when it is taken (the reference replay's holder
// chain), so every stamp is taken at most once. Each take's off is its
// first position in that order; the window's final holdings come after
// its last take.
func (pw *planWork) bucketTakes(a0, a1 int32) {
	if pw.takes.n == 0 {
		pw.byWin = pw.byWin[:0]
		return
	}
	count := growI32(pw.count, int(a1-a0)+1)
	pw.count = count
	clear(count)
	ts := &pw.takes
	for k := int32(0); k < ts.n; k++ {
		count[ts.at(k).a-a0+1]++
	}
	for i := 1; i < len(count); i++ {
		count[i] += count[i-1]
	}
	byWin := growI32(pw.byWin, int(ts.n))
	pw.byWin = byWin
	for k := int32(0); k < ts.n; k++ {
		a := ts.at(k).a - a0
		byWin[count[a]] = k
		count[a]++
	}
	off, a := int32(0), int32(-1)
	for _, k := range byWin {
		t := ts.at(k)
		if t.a != a {
			off, a = 0, t.a
		}
		t.off = off
		off += t.n
	}
}

// planDescriptors lowers the replay to the descriptor plan and writes
// the program's core from low, the lowered tables and the reference
// replay's artifacts. Must run after delivery was verified. Passes
// parallel over nodes — with node classes, over the representatives
// (low.nodes), whose plans every class member shares — build the plan,
// and a compaction writes it into the core:
//
//  1. Per node, in event order, each arrival is recorded as a stamp
//     segment flagged last-hop, and each extraction's stamps clear the
//     flag of every segment they fall in, are marked taken and record
//     one take per window they take from. The stamps never taken are
//     the node's final holdings, in final-stamp order, and the node's
//     takes are sorted by window (bucketTakes).
//  2. Per node, the windows' insert positions (layWindows): recycled,
//     and kept if that shrinks the log by recycleShrink, else
//     append-only.
//  3. Per node, each log move into it and then the node's deliveries
//     (planNodes).
func (p *Program) planDescriptors(low *lowered) error {
	n, nodes := p.n, low.nodes
	numT := len(low.transfers)
	ds := descScratchPool.Get().(*descScratch)
	defer descScratchPool.Put(ds)

	segStamp := growI32(ds.segStamp, numT)
	ds.segStamp = segStamp
	segG := growI32(ds.segG, numT)
	ds.segG = segG
	isLast := growU8(ds.isLast, numT)
	ds.isLast = isLast
	takeAt := growI32(ds.takeAt, numT)
	ds.takeAt = takeAt
	ds.dIns = growI32(ds.dIns, numT)
	dDescOff := growI32(ds.dDescOff, numT)
	ds.dDescOff = dDescOff
	dDescCnt := growI32(ds.dDescCnt, numT)
	ds.dDescCnt = dDescCnt
	// Final delivery layout: node v's blocks occupy
	// [finalBase[v], finalBase[v+1]) of the flat delivery buffer.
	p.deriveDelivery()
	finalBase := p.finalBase
	finals := growI32(ds.finals, int(finalBase[n]))
	ds.finals = finals
	// Every node pass splits the nodes into the same chunks; worker w
	// plans its nodes into work[w], and nodeW records each node's
	// worker for the compaction and the later passes.
	workers := par.Workers()
	for len(ds.work) < par.Width(workers, n) {
		ds.work = append(ds.work, planWork{})
	}
	work := ds.work
	nodeW := make([]int32, n)

	// First pass. A node's worker writes only its own arrivals' entries
	// and the flags and takes of the transfers into and out of it.
	par.ForEachWorker(workers, len(nodes), func(w, lo, hi int) {
		pw := &work[w]
		pw.takes.n = 0
		maxS := int32(0)
		for _, v := range nodes[lo:hi] {
			maxS = max(maxS, low.arrivals[v])
		}
		taken := make([]uint64, (maxS+63)/64)
		for _, v := range nodes[lo:hi] {
			nodeW[v] = int32(w)
			init, next, total := low.init[v], low.init[v], low.arrivals[v]
			base, k := low.arrOff[v], low.arrOff[v]
			words := taken[:(total+63)/64]
			clear(words)
			for _, gr := range low.ops[low.opOff[v]:low.opOff[v+1]] {
				g := int32(gr >> opFlagBits)
				pt := &low.transfers[g]
				if gr&opExtract != 0 {
					src := low.stamps(g)
					first := pw.takes.n
					a, end := base, init
					for i, s := range src {
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
						pw.takes.add(take{a: a, g: g, i: int32(i)})
					}
					if first < pw.takes.n {
						takeAt[g] = first
						for j := first; j < pw.takes.n; j++ {
							end := pt.payLen
							if j+1 < pw.takes.n {
								end = pw.takes.at(j + 1).i
							}
							t := pw.takes.at(j)
							t.n = end - t.i
						}
					}
				}
				if gr&opInsert != 0 {
					segStamp[k], segG[k], isLast[g] = next, g, 1
					k++
					next += pt.payLen
				}
			}

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
		pw.bucketTakes(low.arrOff[nodes[lo]], low.arrOff[nodes[hi-1]+1])
	})
	// A class member's transfer is last-hop when its receiver
	// representative's is.
	if low.rcanon != nil {
		for g := range isLast {
			isLast[g] = isLast[low.rcanon[g]]
		}
	}

	// Second pass, the layout. The append-only log holds every node's
	// initial blocks and every log move's window.
	numMoves, app := 0, int64(0)
	for v := 0; v < n; v++ {
		app += int64(low.init[v])
	}
	for g := range low.transfers {
		if isLast[g] == 0 {
			numMoves++
			app += int64(low.transfers[g].payLen)
		}
	}
	nodeLog := make([]int32, n)
	recycled := numMoves > 0 && p.layWindows(low, ds, workers, true, nodeLog)*recycleShrink <= app
	if !recycled {
		p.layWindows(low, ds, workers, false, nodeLog)
	}

	// Per-node log regions via the descBase prefix.
	descBase := make([]int32, n+1)
	for v := 0; v < n; v++ {
		descBase[v+1] = descBase[v] + nodeLog[v]
	}
	deliverAt := make([]int32, n)
	deliverCnt := make([]int32, n)
	p.planNodes(low, ds, workers, recycled, nodeW, descBase, deliverAt, deliverCnt)
	// A class member's deliveries are its representative's, translated,
	// in its worker's members store.
	if low.cls != nil {
		p.translateDeliveries(low, ds, workers, nodeW, descBase, deliverAt, deliverCnt)
	}

	// Compaction straight into the program's exact-size core: the log
	// moves in step order with descriptors rebased to absolute log
	// positions, then every node's delivery descriptors. A log move's
	// descriptors are its receiver's worker's. A serial prefix places
	// each step's moves and descriptors and each node's deliveries, and
	// the copies run in parallel over steps and then nodes.
	numSteps := len(p.steps)
	stepMove := make([]int32, numSteps+1)
	stepDesc := make([]int32, numSteps+1)
	mi, total := int32(0), int32(0)
	for si := 0; si < numSteps; si++ {
		stepMove[si], stepDesc[si] = mi, total
		for g := low.stepT[si]; g < low.stepT[si+1]; g++ {
			if isLast[g] == 0 {
				mi++
				total += dDescCnt[low.rc(g)]
			}
		}
	}
	stepMove[numSteps], stepDesc[numSteps] = mi, total
	nodeDesc := make([]int32, n+1)
	for v := 0; v < n; v++ {
		nodeDesc[v] = total
		total += deliverCnt[v]
	}
	nodeDesc[n] = total
	p.descBase = descBase
	lay, err := p.newCore(numMoves, int(total))
	if err != nil {
		return err
	}
	core, dIns := p.core, ds.dIns
	par.ForEachWorker(workers, numSteps, func(_, lo, hi int) {
		for si := lo; si < hi; si++ {
			putI32(core, lay.moveOff+4*si, stepMove[si])
			mi, di := stepMove[si], stepDesc[si]
			for g := low.stepT[si]; g < low.stepT[si+1]; g++ {
				pt := &low.transfers[g]
				if isLast[g] != 0 {
					continue
				}
				off, r := di, low.rc(g)
				descs := &work[nodeW[low.transfers[r].dst]].descs
				for i := dDescOff[r]; i < dDescOff[r]+dDescCnt[r]; i++ {
					d := descs.at(i)
					d.start += descBase[pt.src]
					putRecord(core, lay.descs+16*int(di), d)
					di++
				}
				putRecord(core, lay.moves+20*int(mi), logMove{
					src: pt.src, payLen: pt.payLen,
					descOff: off, descLen: dDescCnt[r],
					insPos: descBase[pt.dst] + dIns[r],
				})
				mi++
			}
		}
	})
	putI32(core, lay.moveOff+4*numSteps, stepMove[numSteps])
	par.ForEachWorker(workers, n, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			putI32(core, lay.deliverOff+4*v, nodeDesc[v])
			descs := &work[nodeW[v]].descs
			if low.cls != nil && low.cls.rep[v] != int32(v) {
				descs = &work[nodeW[v]].members
			}
			di := int(nodeDesc[v])
			for i := deliverAt[v]; i < deliverAt[v]+deliverCnt[v]; i++ {
				putRecord(core, lay.descs+16*di, descs.at(i))
				di++
			}
		}
	})
	putI32(core, lay.deliverOff+4*n, nodeDesc[n])
	return nil
}

// layWindows writes every log move's node-local insert position into
// ds.dIns and each node's log size into nodeLog, and returns the log's
// size. Append-only, a node's windows follow its initial blocks in
// arrival order. Recycled, each window is placed in arrival order
// (place), each of its takes dying at its transfer's step, or never if
// that is a last-hop send, and its final holdings never. A node's
// worker writes only the positions of the log moves into it.
func (p *Program) layWindows(low *lowered, ds *descScratch, workers int, recycle bool, nodeLog []int32) int64 {
	segG, isLast, dIns := ds.segG, ds.isLast, ds.dIns
	var step []int32
	if recycle {
		step = growI32(ds.step, len(low.transfers))
		ds.step = step
		for si := range p.steps {
			for g := low.stepT[si]; g < low.stepT[si+1]; g++ {
				step[g] = int32(si)
			}
		}
	}
	nodes := low.nodes
	par.ForEachWorker(workers, len(nodes), func(w, lo, hi int) {
		pw := &ds.work[w]
		r := &pw.region
		bw := pw.byWin
		for _, v := range nodes[lo:hi] {
			r.free, r.dying, r.end = r.free[:0], r.dying[:0], low.init[v]
			for a := low.arrOff[v]; a < low.arrOff[v+1]; a++ {
				g := segG[a]
				if isLast[g] != 0 {
					continue
				}
				size := low.transfers[g].payLen
				if !recycle {
					dIns[g] = r.end
					r.end += size
					continue
				}
				prof, held := pw.prof[:0], size
				for ; len(bw) > 0; bw = bw[1:] {
					t := pw.takes.at(bw[0])
					if t.a != a {
						break
					}
					death := int32(never)
					if isLast[t.g] == 0 {
						death = step[t.g]
					}
					prof = append(prof, extent{n: t.n, death: death})
					held -= t.n
				}
				if held > 0 {
					prof = append(prof, extent{n: held, death: never})
				}
				pw.prof = prof
				dIns[g] = r.place(step[g], size, prof)
			}
			nodeLog[v] = r.end
		}
	})
	if cl := low.cls; cl != nil {
		for v := range nodeLog {
			nodeLog[v] = nodeLog[cl.rep[v]]
		}
	}
	var size int64
	for _, l := range nodeLog {
		size += int64(l)
	}
	return size
}

// planNodes plans the log moves' and deliveries' descriptors in one
// pass over the receivers, whose windows lie at ds.dIns, finding every
// slot run-wise from the takes. A sender's initial blocks lie at their
// stamps. Recycled, a take's blocks lie at consecutive slots from its
// window's insert position plus its off, and a window's final holdings
// at consecutive slots after its last take. Append-only, every block of
// a window lies at its stamp's offset in the window. Per node:
//
//   - each log move into it, in its window's slot order — append-only,
//     its payload order; recycled, the node's takes from the window and
//     then its final stamps there — with the sender's takes mapping
//     each payload position to the sender's slot (senderSlots);
//   - its deliveries, in final-stamp order: its initial and window
//     slots, and each last-hop arrival's whole payload at its sender's
//     slots.
func (p *Program) planNodes(low *lowered, ds *descScratch, workers int, recycled bool, nodeW, descBase, deliverAt, deliverCnt []int32) {
	nodes, dIns := low.nodes, ds.dIns
	segStamp, segG, isLast := ds.segStamp, ds.segG, ds.isLast
	dDescOff, dDescCnt := ds.dDescOff, ds.dDescCnt
	finals, finalBase := ds.finals, p.finalBase
	work := ds.work
	// senderPieces returns the takes of transfer g at its sender as
	// pieces, in position order, in pw's scratch (recycled).
	senderPieces := func(pw *planWork, g int32) []piece {
		pieces := pw.pieces[:0]
		g = low.sc(g)
		takes := &work[nodeW[low.transfers[g].src]].takes
		for k := ds.takeAt[g]; k < takes.n && takes.at(k).g == g; k++ {
			t := takes.at(k)
			pieces = append(pieces, piece{t.i, t.n, dIns[segG[t.a]] + t.off - t.i})
		}
		pw.pieces = pieces
		return pieces
	}
	// stampSlots appends to rs, offset by base, the slots at which the
	// sender of transfer g holds its whole payload src, append-only:
	// each block at its stamp there, plus, in a take, its window's
	// insert position less the window's first stamp.
	stampSlots := func(rs []run, base, g int32, src []int32) []run {
		g = low.sc(g)
		takes := &work[nodeW[low.transfers[g].src]].takes
		j := int32(0)
		for k := ds.takeAt[g]; k < takes.n && takes.at(k).g == g; k++ {
			t := takes.at(k)
			for ; j < t.i; j++ {
				rs = appendRun(rs, base+src[j], 1)
			}
			off := base + dIns[segG[t.a]] - segStamp[t.a]
			for ; j < t.i+t.n; j++ {
				rs = appendRun(rs, off+src[j], 1)
			}
		}
		for ; j < int32(len(src)); j++ {
			rs = appendRun(rs, base+src[j], 1)
		}
		return rs
	}
	par.ForEachWorker(workers, len(nodes), func(w, lo, hi int) {
		pw := &work[w]
		st := &pw.descs
		st.n = 0
		bw := pw.byWin
		for _, v := range nodes[lo:hi] {
			a0, a1 := low.arrOff[v], low.arrOff[v+1]
			held := finals[finalBase[v]:finalBase[v+1]]
			var firstHeld []int32
			if recycled {
				firstHeld = growI32(pw.held, int(a1-a0))
				pw.held = firstHeld
			}
			fi := 0
			for a := a0; a < a1; a++ {
				g := segG[a]
				if isLast[g] != 0 {
					continue
				}
				pt := &low.transfers[g]
				src := low.stamps(g)
				rs := st.runs[:0]
				if !recycled {
					st.runs = stampSlots(rs, 0, g, src)
					dDescOff[g], dDescCnt[g] = st.appendRuns(st.runs)
					continue
				}
				pieces := senderPieces(pw, g)
				s0 := segStamp[a]
				// positions appends the sender's slots of the window
				// positions of stamps, ascending, run-wise. A sender that
				// holds the whole payload in one take, the common case,
				// maps them by one offset.
				whole := len(pieces) == 1 && pieces[0].i == 0
				positions := func(rs []run, stamps []int32) []run {
					k := 0
					for i := 0; i < len(stamps); {
						e := i + 1
						for e < len(stamps) && stamps[e] == stamps[e-1]+1 {
							e++
						}
						if whole {
							rs = appendRun(rs, pieces[0].base+stamps[i]-s0, int32(e-i))
						} else {
							rs = senderSlots(rs, 0, pieces, &k, src, stamps[i]-s0, int32(e-i))
						}
						i = e
					}
					return rs
				}
				next := dIns[g]
				for ; len(bw) > 0; bw = bw[1:] {
					t := pw.takes.at(bw[0])
					if t.a != a {
						break
					}
					rs = positions(rs, low.stamps(t.g)[t.i:t.i+t.n])
					next = dIns[g] + t.off + t.n
				}
				firstHeld[a-a0] = next
				for fi < len(held) && held[fi] < s0 {
					fi++
				}
				f0 := fi
				for fi < len(held) && held[fi] < s0+pt.payLen {
					fi++
				}
				rs = positions(rs, held[f0:fi])
				st.runs = rs
				dDescOff[g], dDescCnt[g] = st.appendRuns(rs)
			}
			init, base := low.init[v], descBase[v]
			rs, a := st.runs[:0], a0
			for i := 0; i < len(held); {
				s := held[i]
				if s < init {
					rs = appendRun(rs, base+s, 1)
					i++
					continue
				}
				a = segAt(segStamp, a, a1, s)
				g := segG[a]
				pt := &low.transfers[g]
				if isLast[g] != 0 {
					src := low.stamps(g)
					switch t := src[0]; {
					case len(src) == 1 && t < low.init[pt.src]:
						rs = appendRun(rs, descBase[pt.src]+t, 1) // direct's every delivery
					case recycled:
						k := 0
						rs = senderSlots(rs, descBase[pt.src], senderPieces(pw, g), &k, src, 0, pt.payLen)
					default:
						rs = stampSlots(rs, descBase[pt.src], g, src)
					}
					i += int(pt.payLen)
					continue
				}
				end := segStamp[a] + pt.payLen
				if recycled {
					e := i + 1
					for e < len(held) && held[e] < end {
						e++
					}
					rs = appendRun(rs, base+firstHeld[a-a0], int32(e-i))
					i = e
					continue
				}
				for off := base + dIns[g] - segStamp[a]; i < len(held) && held[i] < end; i++ {
					rs = appendRun(rs, off+held[i], 1)
				}
			}
			st.runs = rs
			deliverAt[v], deliverCnt[v] = st.appendRuns(rs)
		}
	})
}

// translateDeliveries plans every class member's deliveries from its
// representative's, which planNodes planned: each run the
// representative's descriptors read, cut at node regions, moves to the
// same node-local slots of the region of the node translated by the
// member's vector. Runs are then joined and coalesced as planNodes
// joins and coalesces them, so a member's descriptors are those a plan
// of the member itself would give.
func (p *Program) translateDeliveries(low *lowered, ds *descScratch, workers int, nodeW, descBase, deliverAt, deliverCnt []int32) {
	cl, work := low.cls, ds.work
	par.ForEachWorker(workers, p.n, func(w, lo, hi int) {
		st := &work[w].members
		st.n = 0
		for u := lo; u < hi; u++ {
			v := cl.rep[u]
			if v == int32(u) {
				continue
			}
			nodeW[u] = int32(w)
			row, descs := cl.row(cl.off[u]), &work[nodeW[v]].descs
			rs, x := st.runs[:0], int32(0) // x: the region of the last run read
			for i := deliverAt[v]; i < deliverAt[v]+deliverCnt[v]; i++ {
				d := descs.at(i)
				lo, hi := d.span()
				if int32(lo) < descBase[x] || int32(lo) >= descBase[x+1] {
					x = regionOf(descBase, int32(lo))
				}
				if hi <= int64(descBase[x+1]) {
					// The descriptor reads one region: every run moves by
					// the same shift.
					s := d.start + descBase[row[x]] - descBase[x]
					for k := int32(0); k < d.count; k++ {
						rs = appendRun(rs, s+k*d.stride, d.blocklen)
					}
					continue
				}
				for k := int32(0); k < d.count; k++ {
					for s, m := d.start+k*d.stride, d.blocklen; m > 0; {
						if s < descBase[x] || s >= descBase[x+1] {
							x = regionOf(descBase, s)
						}
						c := min(m, descBase[x+1]-s)
						rs = appendRun(rs, descBase[row[x]]+s-descBase[x], c)
						s, m = s+c, m-c
					}
				}
			}
			st.runs = rs
			deliverAt[u], deliverCnt[u] = st.appendRuns(rs)
		}
	})
}

// regionOf returns the node whose log region holds slot s, every region
// being non-empty.
func regionOf(descBase []int32, s int32) int32 {
	lo, hi := 0, len(descBase)-1
	for hi-lo > 1 {
		m := (lo + hi) / 2
		if descBase[m] <= s {
			lo = m
		} else {
			hi = m
		}
	}
	return int32(lo)
}

// senderSlots appends to rs, offset by base, the slots at which a
// sender holds payload positions [j, j+m) of a transfer whose takes at
// the sender are pieces and whose payload is src, the sender's stamps,
// under the recycled layout: a position before the first piece lies at
// its stamp, an initial slot, and one in a piece at the piece's slots.
// Positions come ascending across calls that share the piece cursor k.
func senderSlots(rs []run, base int32, pieces []piece, k *int, src []int32, j, m int32) []run {
	for m > 0 {
		for *k < len(pieces) && pieces[*k].i <= j {
			*k++
		}
		if *k == 0 {
			rs = appendRun(rs, base+src[j], 1)
			j, m = j+1, m-1
			continue
		}
		pc := &pieces[*k-1]
		c := min(m, pc.i+pc.n-j)
		rs = appendRun(rs, base+pc.base+j, c)
		j, m = j+c, m-c
	}
	return rs
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

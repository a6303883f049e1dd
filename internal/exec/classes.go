package exec

import (
	"slices"
	"sync/atomic"

	"torusx/internal/schedule"
	"torusx/internal/topology"
)

// Node classes. A builder may declare its schedule invariant under the
// lattice of torus translations by a period p along any dimension
// (schedule.Schedule.Lattice): ring, factored and logtime do what node
// 0 does at every node (p = 1), and the proposed exchange does what one
// node group does at every group, by (r+c) mod 4 (p = 4). A node's
// class is its translates; its representative is the one whose every
// coordinate is below p, and its vector t_v = v − rep(v) is v's
// coordinates less their remainders mod p. Compile uses the declaration
// in three steps.
//
//   - Relative order. Every node's initial blocks are laid out relative
//     to its vector: node v's block of rank k is B[v, t_v + k], so a
//     node's translate holds the translates of its blocks rank for rank.
//     With p = 1 that is node-relative order (the block for d at rank
//     id(coord(d) − coord(v))); a representative keeps matrix order. A
//     program compiled so carries flagRelative and the period, and its
//     arena writes the initial ids in that order.
//   - The lattice check. While lowering, every step is checked to map
//     onto itself under the lattice: each transfer of a node that is not
//     its class's representative is the representative's transfer of
//     the step, translated — endpoints, route, block count and payload
//     ids as a multiset (the compile reads a payload only as its blocks'
//     arrival stamps, sorted, so payload order is free) — and every node
//     of a class sends when its representative does.
//   - One representative per class. With relative order, the reference
//     replay's state at any node is its representative's, translated,
//     so the replay walks the representatives' sends and receives only,
//     and the descriptor planner plans the representatives only: a
//     class member's log moves and windows are its representative's at
//     the same node-local positions, and its delivery descriptors its
//     representative's, translated region by region.
//
// A schedule that fails the check, or a replay that finds an error
// among the representatives, falls back to singleton classes on the
// same path: the reference replay restarts over every node and reports
// exactly the error it reports for an undeclared schedule. The lattice
// changes no verdict and no measure; with singleton classes the
// relative order stays, so a class compile writes the bytes a compile
// forced to singleton classes writes.

// maxLatticeDims bounds the dimensions of a torus a lattice may be
// declared on, so a torus's shape fits fixed arrays.
const maxLatticeDims = 16

// torusShape is a torus's dimensions and row-major node-id strides.
type torusShape struct {
	nd            int
	dims, strides [maxLatticeDims]int
}

func shapeOf(t *topology.Torus) torusShape {
	sh := torusShape{nd: t.NDims()}
	s := 1
	for i := sh.nd - 1; i >= 0; i-- {
		sh.dims[i], sh.strides[i] = t.Dim(i), s
		s *= t.Dim(i)
	}
	return sh
}

// addRow writes to dst[k], for every node k, base plus the node v + k:
// the node whose coordinates are v's plus k's, each modulo its
// dimension. It fills a last-dimension ring at a time: the ring's part
// above the last dimension is one odometer step, the ring itself two
// runs.
func (sh *torusShape) addRow(v int, base int32, dst []int32) {
	nd := sh.nd
	last := sh.dims[nd-1]
	var cur, c [maxLatticeDims]int
	rest := v
	for i := 0; i < nd; i++ {
		cur[i] = rest / sh.strides[i]
		rest %= sh.strides[i]
	}
	// high is base plus v + k's id less its last coordinate, for the
	// ring of k.
	high, lc := int(base)+v-cur[nd-1], cur[nd-1]
	for k := 0; k < len(dst); k += last {
		ring := dst[k : k+last]
		for j := range ring[:last-lc] {
			ring[j] = int32(high + lc + j)
		}
		for j := range ring[last-lc:] {
			ring[last-lc+j] = int32(high + j)
		}
		for i := nd - 2; i >= 0; i-- {
			high -= cur[i] * sh.strides[i]
			if cur[i]++; cur[i] == sh.dims[i] {
				cur[i] = 0
			}
			high += cur[i] * sh.strides[i]
			if c[i]++; c[i] < sh.dims[i] {
				break
			}
			c[i] = 0
		}
	}
}

// latVec returns node v's lattice vector for period p: the node whose
// coordinates are v's less their remainders mod p.
func (sh *torusShape) latVec(v, p int) int {
	rest, t := v, 0
	for i := 0; i < sh.nd; i++ {
		c := rest / sh.strides[i]
		rest %= sh.strides[i]
		t += (c - c%p) * sh.strides[i]
	}
	return t
}

// maxLatticePeriod is the largest period a program file records.
const maxLatticePeriod = 255

// validLattice reports whether period declares a lattice on f: f is a
// torus of at most maxLatticeDims dimensions, and period lies in
// [1, maxLatticePeriod] and divides every dimension.
func validLattice(f topology.Fabric, period int) (*topology.Torus, bool) {
	t, ok := f.(*topology.Torus)
	if !ok || t.NDims() > maxLatticeDims || period < 1 || period > maxLatticePeriod {
		return nil, false
	}
	for i := 0; i < t.NDims(); i++ {
		if t.Dim(i)%period != 0 {
			return nil, false
		}
	}
	return t, true
}

// classes is a compile's node classes under its declared lattice. A
// class is a representative, the node whose every coordinate is below
// the period p, and its translates by the lattice's vectors. Vector j
// has coordinates q_i·p for the mixed-radix digits q of j.
type classes struct {
	n    int
	size int     // nodes per class
	reps []int32 // the representatives, ascending
	rep  []int32 // node -> its representative
	// repIdx maps a representative to its index in reps.
	repIdx []int32
	off    []int32 // node -> the vector from its representative to it
	neg    []int32 // vector -> its negation
	// rows[j*n+w] is node w translated by vector j.
	rows []int32
}

// newClasses returns the classes of the lattice of period p on t, nil
// when every class would be a single node.
func newClasses(t *topology.Torus, p int) *classes {
	n, nd := t.Nodes(), t.NDims()
	sh := shapeOf(t)
	strides := sh.strides[:nd]
	numReps := 1
	for i := 0; i < nd; i++ {
		numReps *= p
	}
	if numReps == n || numReps > maxClassReps {
		return nil
	}
	cl := &classes{
		n: n, size: n / numReps,
		rep: make([]int32, n), off: make([]int32, n), repIdx: make([]int32, n),
		neg: make([]int32, n/numReps), rows: make([]int32, n/numReps*n),
	}
	// radix[i] is the place of dimension i's digit in a vector index.
	radix := make([]int, nd)
	r := 1
	for i := nd - 1; i >= 0; i-- {
		radix[i] = r
		r *= t.Dim(i) / p
	}
	c := make([]int, nd)
	for v := 0; v < n; v++ {
		rest, rep, j := v, 0, 0
		for i := 0; i < nd; i++ {
			c[i] = rest / strides[i]
			rest %= strides[i]
			rep += c[i] % p * strides[i]
			j += c[i] / p * radix[i]
		}
		cl.rep[v], cl.off[v] = int32(rep), int32(j)
		if rep == v {
			cl.repIdx[v] = int32(len(cl.reps))
			cl.reps = append(cl.reps, int32(v))
			continue
		}
		if rep == 0 {
			// v is vector j itself: fill its row and its negation's index.
			sh.addRow(v, 0, cl.rows[j*n:(j+1)*n])
			k := 0
			for i := 0; i < nd; i++ {
				q := t.Dim(i) / p
				k += (q - c[i]/p) % q * radix[i]
			}
			cl.neg[j] = int32(k)
		}
	}
	for w := 0; w < n; w++ {
		cl.rows[w] = int32(w)
	}
	return cl
}

// row returns node w translated by vector j, for every w.
func (cl *classes) row(j int32) []int32 {
	return cl.rows[int(j)*cl.n : int(j+1)*cl.n]
}

// latticeWork is a lowering worker's scratch for the lattice check:
// sendAt maps a node to its transfer's index in the step + 1, split
// holds representatives' payload ids split into origin<<16 | dest
// (splitAt: transfer index -> offset + 1), and mark flags block ids,
// clear between checks: a byte per id, as a bitmap measured slower.
type latticeWork struct {
	sendAt, splitAt []int32
	split           []uint32
	mark            []bool
}

// checkStep reports whether the step's transfers trs map onto
// themselves under the lattice (see the comment at the top of this
// file). Every payload id must already be range-checked, and the step
// one-port.
func (cl *classes) checkStep(trs []schedule.Transfer, lw *latticeWork, recip uint64) bool {
	n := cl.n
	if lw.sendAt == nil {
		lw.sendAt = make([]int32, n)
		lw.mark = make([]bool, n*n)
	}
	for i := range trs {
		lw.sendAt[trs[i].Src] = int32(i + 1)
	}
	lw.splitAt = growI32(lw.splitAt, len(trs))
	clear(lw.splitAt)
	lw.split = lw.split[:0]
	ok := cl.matchStep(trs, lw, recip)
	for i := range trs {
		lw.sendAt[trs[i].Src] = 0
	}
	return ok
}

// matchStep is checkStep's walk. A member's payload is compared in
// order with its representative's, translated by the member's vector.
// From the first id that differs, the rest of the translate is marked,
// and the rest of the member's payload must consume every mark exactly
// once: then the payload is the translate as a multiset, and the marks
// are clear again. n <= 46,340 (n² ids fit an int32), so an origin and
// a destination fit 16 bits each.
func (cl *classes) matchStep(trs []schedule.Transfer, lw *latticeWork, recip uint64) bool {
	n, mark := uint32(cl.n), lw.mark
	members, need := 0, 0
	var one, rone [1]schedule.Seg
	for i := range trs {
		tr := &trs[i]
		r := cl.rep[tr.Src]
		if r == int32(tr.Src) {
			need += cl.size - 1
			continue
		}
		members++
		j := lw.sendAt[r] - 1
		if j < 0 {
			return false
		}
		rt := &trs[j]
		row := cl.row(cl.off[tr.Src])
		if row[rt.Dst] != int32(tr.Dst) || rt.Blocks != tr.Blocks || len(rt.Payload) != len(tr.Payload) ||
			!slices.Equal(routeLegs(rt, &rone), routeLegs(tr, &one)) {
			return false
		}
		if lw.splitAt[j] == 0 {
			lw.splitAt[j] = int32(len(lw.split)) + 1
			for _, id := range rt.Payload {
				o := divRecip(uint32(id), recip)
				lw.split = append(lw.split, o<<16|(uint32(id)-o*n))
			}
		}
		at := int(lw.splitAt[j] - 1)
		split, pay := lw.split[at:at+len(tr.Payload)], tr.Payload
		k, lastO, base := 0, uint32(1<<16), uint32(0)
		for ; k < len(pay); k++ {
			od := split[k]
			if o := od >> 16; o != lastO {
				lastO, base = o, uint32(row[o])*n
			}
			if base+uint32(row[od&0xFFFF]) != uint32(pay[k]) {
				break
			}
		}
		if k == len(pay) {
			continue
		}
		for _, od := range split[k:] {
			if o := od >> 16; o != lastO {
				lastO, base = o, uint32(row[o])*n
			}
			mark[base+uint32(row[od&0xFFFF])] = true
		}
		for _, id := range pay[k:] {
			if !mark[id] {
				return false
			}
			mark[id] = false
		}
	}
	return members == need
}

// forceSingleton, set by a test hook, makes every compile plan with
// singleton classes, relative order kept.
var forceSingleton atomic.Bool

// declare takes the schedule's lattice declaration: before any phase,
// on a torus, under the full traffic matrix, it sets relative order
// and, unless every class is one node, the classes.
func (c *compiler) declare(period int) {
	if len(c.phases) > 0 || c.period > 0 || c.opt.Traffic != nil {
		return
	}
	t, ok := validLattice(c.f, period)
	if !ok {
		return
	}
	c.period, c.shape = period, shapeOf(t)
	if !forceSingleton.Load() {
		c.cls = newClasses(t, period)
	}
}

// dropClasses falls back to singleton classes: the reference replay,
// if it began, restarts over every node and walks the steps the class
// replay walked.
func (c *compiler) dropClasses() {
	c.cls = nil
	if c.rr == nil {
		return
	}
	compileScratchPool.Put(c.rr.cs)
	c.rr = nil
	if c.replayErr = c.startReplay(); c.replayErr == nil {
		c.replayErr = c.replaySteps(0, c.replayedTo)
	}
}

// replayClassSteps walks steps [s0, s1) for the representatives: each
// representative's send, its ids copied and rewritten as sender stamps
// in the class tables (the schedule's ids stay, so a fallback can
// replay them), and each representative's receive from a class member,
// the sender representative's blocks translated, in the same stamp
// order. A block held by no representative reads as absent. It reports
// false on any anomaly, which the singleton replay then names.
func (c *compiler) replayClassSteps(s0, s1 int) bool {
	rr, cl, n := c.rr, c.cls, c.n
	ch, arrivals := rr.ch, rr.arrivals
	numT := len(c.ls.transfers)
	rr.canon = grow(rr.canon, numT-len(rr.canon))
	rr.rcanon = grow(rr.rcanon, numT-len(rr.rcanon))
	rr.stampAt = grow(rr.stampAt, numT-len(rr.stampAt))
	rr.ordAt = grow(rr.ordAt, numT-len(rr.ordAt))
	if rr.sendAt == nil {
		rr.sendAt = make([]int32, n)
		rr.recvAt = make([]int32, n)
	}
	sendAt, recvAt := rr.sendAt, rr.recvAt
	enterStep := func(v int32, sv int32) {
		if rr.nodeStep[v] != sv {
			rr.nodeStep[v] = sv
			rr.stepArr[v] = arrivals[v]
		}
	}
	for si := s0; si < s1; si++ {
		lo, hi := int(c.stepT[si]), c.stepEnd(si)
		trs := c.ls.transfers[lo:hi]
		sv := int32(si) + 1
		for i := range trs {
			pt := &trs[i]
			if cl.rep[pt.src] == pt.src {
				sendAt[pt.src] = int32(lo+i) + 1
			}
			if cl.rep[pt.dst] == pt.dst {
				recvAt[pt.dst] = int32(lo+i) + 1
			}
		}
		ok := true
		for i := range trs {
			pt := &trs[i]
			s, r := sendAt[cl.rep[pt.src]]-1, recvAt[cl.rep[pt.dst]]-1
			if s < 0 || r < 0 {
				ok = false
			}
			rr.canon[lo+i], rr.rcanon[lo+i] = s, r
		}
		for i := range trs {
			pt := &trs[i]
			if !ok || cl.rep[pt.src] != pt.src {
				continue
			}
			keep := cl.rep[pt.dst] == pt.dst
			enterStep(pt.src, sv)
			if keep {
				enterStep(pt.dst, sv)
			}
			if rr.stamps == nil {
				// A valid schedule's representatives carry 1/size of its
				// payload ids; Compile has counted them all by now.
				rr.stamps = make([]int32, 0, c.numPayload/cl.size)
			}
			off := len(rr.stamps)
			rr.stampAt[lo+i] = int32(off)
			rr.stamps = append(rr.stamps, c.ls.pay.at(int(pt.payOff), int(pt.payLen))...)
			rr.ordAt[lo+i] = int32(len(rr.ord))
			rr.ord = grow(rr.ord, int(pt.payLen))
			ok = c.repSend(rr.stamps[off:], rr.ord[len(rr.ord)-int(pt.payLen):], pt.src, pt.dst, keep)
		}
		for i := range trs {
			pt := &trs[i]
			g := lo + i
			if !ok || cl.rep[pt.src] == pt.src {
				continue
			}
			rr.stampAt[g] = rr.stampAt[rr.canon[g]]
			if cl.rep[pt.dst] != pt.dst {
				continue
			}
			enterStep(pt.dst, sv)
			row, a := cl.row(cl.off[pt.src]), arrivals[pt.dst]
			if a+pt.payLen > maxClassStamp {
				ok = false
				continue
			}
			holder := cl.holder(pt.dst)
			at := rr.ordAt[rr.canon[g]]
			for _, id := range rr.ord[at : at+pt.payLen] {
				o := divRecip(uint32(id), c.recip)
				ch[int(row[o])*n+int(row[uint32(id)-o*uint32(n)])] = holder | uint32(a)
				a++
			}
			arrivals[pt.dst] = a
		}
		for i := range trs {
			sendAt[trs[i].src], recvAt[trs[i].dst] = 0, 0
		}
		rr.ord = rr.ord[:0]
		if !ok {
			return false
		}
	}
	return true
}

// repSend moves a representative's payload from src to dst: buf holds
// its ids and is rewritten as their sender stamps, ascending, and ord
// as the ids in that order. dst takes the blocks when keep is set (it
// is a representative); otherwise they leave every representative. It
// reports false on a block src does not hold, one listed twice, one
// that arrived at src within the current step, or a stamp past
// maxClassStamp.
func (c *compiler) repSend(buf, ord []int32, src, dst int32, keep bool) bool {
	rr, cl := c.rr, c.cls
	ch, cs := rr.ch, rr.cs
	stamps := growI32(cs.side, len(buf))
	cs.side = stamps
	begun, from := rr.stepArr[src], cl.holder(src)
	for i, id := range buf {
		h := ch[id]
		st := int32(h & maxClassStamp)
		if h&^maxClassStamp != from || st >= begun {
			return false
		}
		stamps[i] = st
		ch[id] = classInFlight
	}
	holder, a := uint32(0), rr.arrivals[dst]
	if keep {
		if a+int32(len(buf)) > maxClassStamp {
			return false
		}
		holder = cl.holder(dst)
	}
	for i, k := range cs.stampKeys(buf, stamps) {
		id := uint32(k)
		buf[i], ord[i] = int32(k>>32), int32(id)
		if keep {
			ch[id] = holder | uint32(a)
			a++
		} else {
			ch[id] = 0
		}
	}
	if keep {
		rr.arrivals[dst] = a
	}
	return true
}

// The class replay's holder table holds a word per block id: 0 when no
// representative holds the block, else the holding representative's
// index + 1 above its stamp's 24 bits (holder). A compile whose
// representatives number more than maxClassReps plans with singleton
// classes, and one whose stamps outgrow the field falls back to them.
const (
	maxClassStamp = 1<<24 - 1
	maxClassReps  = 254
	classInFlight = uint32(0xFF) << 24
)

// holder returns representative v's holder word, its stamp zero.
func (cl *classes) holder(v int32) uint32 { return uint32(cl.repIdx[v]+1) << 24 }

// startClassReplay fills the class replay's holder table with the
// representatives' initial blocks, in matrix order: a representative's
// lattice vector is 0.
func (c *compiler) startClassReplay() {
	rr, cl, n := c.rr, c.cls, c.n
	cs := rr.cs
	if cap(cs.ch) < n*n {
		cs.ch = make([]uint32, n*n)
	}
	rr.ch = cs.ch[:n*n]
	clear(rr.ch)
	for _, v := range cl.reps {
		base, hv := int(v)*n, cl.holder(v)
		for d := 0; d < n; d++ {
			rr.ch[base+d] = hv | uint32(d)
		}
	}
}

// classDelivered reports whether every representative holds exactly its
// share of the matrix, every block addressed to it; the class replay
// tracks no other node's blocks. It fills in the other nodes' arrival
// counts from their representatives'.
func (c *compiler) classDelivered() bool {
	rr, cl, n := c.rr, c.cls, c.n
	held := make([]int32, n)
	for id, h := range rr.ch {
		if h == 0 {
			continue
		}
		r := int(h>>24) - 1
		if r >= len(cl.reps) || id%n != int(cl.reps[r]) {
			return false
		}
		held[cl.reps[r]]++
	}
	for _, v := range cl.reps {
		if held[v] != c.p.perDest[v] {
			return false
		}
	}
	for v := range rr.arrivals {
		rr.arrivals[v] = rr.arrivals[cl.rep[v]]
	}
	return true
}

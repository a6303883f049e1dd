package exec

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"torusx/internal/obs"
	"torusx/internal/par"
	"torusx/internal/schedule"
	"torusx/internal/topology"
)

// Compile validates sc once — one-port and contention checks (honoring
// opt.SkipChecks), payload/Blocks coherence, the full sender-holds
// replay chain and final delivery against the declared traffic matrix
// (opt.Traffic, nil meaning all-to-all), and the program format's
// limits — and writes it as a program file, which it then views as the
// Program, just as DecodeProgram views a stored one: the result holds
// the file's exact-size bytes, with the schedule's digest, and nothing
// of sc. A rejected schedule fails here, at compile time; a compiled
// program's runs cannot fail, except that the parallel replay refuses
// intra-step forwarding. Compile reads sc only while lowering it: the
// later passes read what lowering kept in pooled scratch, so a caller
// that drops its own reference lets the collector reuse the schedule's
// pages for the planner's tables. The program has no schedule source
// (see SetSource). Options.Serial, Workers and Telemetry are run-time
// choices and are ignored by Compile; Options.Request receives the
// stages of its passes (obs.StageLower, StageReferenceReplay,
// StagePlanDescriptors, StageSeal).
//
// Compile is the consumer CompileStream runs, fed the whole schedule as
// one batch. When a schedule breaks several rules, the error reported
// is the first of: a program-format limit, in schedule order; a
// lowering error (one-port, contention, payload coherence or range),
// at the lowest step; a reference-replay error (traffic matrix, then
// sender-holds), at the lowest step; a delivery error.
func Compile(sc *schedule.Schedule, opt Options) (*Program, error) {
	if sc == nil || sc.Fabric == nil {
		return nil, fmt.Errorf("exec: nil schedule")
	}
	c := newCompiler(sc.Fabric, opt)
	defer c.release()
	c.sizeFor(len(sc.Phases), sc.NumSteps())
	for pi := range sc.Phases {
		ph := &sc.Phases[pi]
		c.phase(ph.Name, ph.Rearrange)
		for si := range ph.Steps {
			c.step(ph.Steps[si])
		}
	}
	c.flush()
	return c.finish()
}

// afterLower, when set, runs inside Compile after each batch of steps
// is lowered.
var afterLower atomic.Pointer[func(steps int)]

// SetAfterLowerHook makes every Compile and CompileStream call fn after
// lowering each batch of steps — once, for Compile's whole schedule —
// with the number of steps lowered so far, when nothing the compile
// holds references those steps any more, and returns a function that
// restores the previous hook. It exists for tests that prove lowered
// steps collectable at that point.
func SetAfterLowerHook(fn func(steps int)) (restore func()) {
	prev := afterLower.Swap(&fn)
	return func() { afterLower.Store(prev) }
}

// compiler is the consumer behind Compile and CompileStream. It takes a
// schedule in order — phase headers and steps, as a builder emits them
// — and counts each step as it arrives: the program format's limits,
// the step's route hops, payload-carrying transfers and payload ids.
// flush then lowers the counted steps as one batch, fanned out over the
// worker pool, and runs the reference replay (compile_sim.go) over the
// batch; finish verifies delivery, plans the descriptors and seals the
// program file. The lowered tables grow batch by batch: the transfer
// table by doubling, the payload ids in pages that never move
// (idPages), so no pass needs the whole schedule's sizes up front.
type compiler struct {
	opt Options
	f   topology.Fabric
	n   int
	p   *Program // under construction: step headers, measure, counts
	ls  *lowerScratch
	// adopt, set by CompileStream, which owns every step it takes, lets
	// a large step keep its payload ids in the builder's backing (see
	// adoptable); Compile copies, because its caller owns the schedule.
	adopt bool

	phases     []phaseRec
	shared     []bool   // step si's Shared flag, for the digest
	stepHash   []uint64 // step si's digest hash
	stepT      []int32  // step si's lowered transfers are ls.transfers[stepT[si]:stepT[si+1]]
	numPayload int      // payload ids counted so far

	batch  []batchStep // counted steps awaiting lowering
	batchT int         // their payload-carrying transfers
	batchP int         // their payload ids

	// Route tables and contention domains (see lowerBatch).
	usedDims   []bool   // (dim*2 + dirbit) pairs any counted route leg uses
	tabNL      []uint64 // per-pair single-hop tables, torus only
	tabBuilt   []bool
	domainTab  []int32
	numDomains int
	work       []lowerWork

	// Verdicts, in the order they win (see Compile). Once a limit error
	// is found nothing else is read; after a lowering error or a
	// payload count past the format's limit, steps are only counted.
	limitErr  error
	overflow  bool
	lowerErr  error
	lowerStep int
	// pendErr is the lowest payload-coherence error among steps lowered
	// before any step showed a payload: it binds only if a later step
	// makes the schedule replayable.
	pendErr   error
	pendStep  int
	replayErr error
	rr        *refReplay

	// Summed stage times, kept only for a traced request: a streamed
	// compile lowers and replays batch by batch, and each stage is
	// recorded as one span of its summed time.
	lowerClock, replayClock stageClock
}

// phaseRec is what a compile keeps of a phase header.
type phaseRec struct {
	name      string
	rearrange int
	steps     int
}

// batchStep is one counted step awaiting lowering, with its offsets
// into the lowered tables once its batch is flushed.
type batchStep struct {
	s     schedule.Step
	si    int     // step ordinal in the schedule
	links int     // hops of its expanded routes
	tLen  int     // payload-carrying transfers
	pLen  int     // payload ids
	ids   []int32 // the payload ids in the builder's backing, when adopted
	tOff  int     // first lowered transfer
	pOff  int     // first payload id (an idPages offset)
}

// lowerWork is one lowering worker's scratch, kept across batches.
type lowerWork struct {
	linkClaim  []int32 // domain -> claim stamp (checkStep scratch)
	shareClaim []int64 // domain -> (step ordinal + 1)<<32 | uses, see lowerBatch
	sendClaim  []int32
	recvClaim  []int32
	touched    []int32
	links      []int32 // the step's expanded routes
	lend       []int32 // transfer i's routes end at links[lend[i]]
}

// stageClock sums one stage's time over the batches it runs in.
type stageClock struct {
	start time.Time
	d     time.Duration
}

// since adds the time from t0 to now and returns now.
func (k *stageClock) since(t0 time.Time) time.Time {
	now := time.Now()
	if k.start.IsZero() {
		k.start = t0
	}
	k.d += now.Sub(t0)
	return now
}

// record adds the stage to req as one span of its summed time.
func (k *stageClock) record(req *obs.Request, name string) {
	if !k.start.IsZero() {
		req.Record(name, k.start, k.d)
	}
}

// lowerScratch pools the lowered transfer table and the payload ids
// across compiles. Lowering writes every element a compile reads, so
// reuse needs no zeroing.
type lowerScratch struct {
	transfers []ptransfer
	pay       idPages
}

var lowerScratchPool = sync.Pool{New: func() any { return new(lowerScratch) }}

func newCompiler(f topology.Fabric, opt Options) *compiler {
	n := f.Nodes()
	ls := lowerScratchPool.Get().(*lowerScratch)
	c := &compiler{
		opt: opt, f: f, n: n, ls: ls,
		p:          &Program{fab: f, n: n, numBlocks: n * n, maxSharing: 1},
		numDomains: f.NumContentionDomains(),
	}
	if nd := f.NDims(); nd > 0 {
		c.usedDims = make([]bool, nd*2)
	}
	// Contention-domain table: when the fabric groups links into
	// domains, domainTab maps link ids to domains; on identity-domain
	// fabrics (torus, dragonfly) it stays nil and link ids index the
	// claim tables directly, keeping the hot loops free of interface
	// calls.
	if c.numDomains != f.NumLinkIDs() {
		c.domainTab = make([]int32, f.NumLinkIDs())
		for id := range c.domainTab {
			c.domainTab[id] = int32(f.ContentionDomain(id))
		}
	}
	return c
}

// sizeFor sizes the per-phase and per-step tables for a schedule of
// phases phases and steps steps.
func (c *compiler) sizeFor(phases, steps int) {
	c.phases = make([]phaseRec, 0, phases)
	c.p.steps = make([]pstep, 0, steps)
	c.shared = make([]bool, 0, steps)
	c.stepHash = make([]uint64, 0, steps)
	c.stepT = make([]int32, 0, steps+1)
	c.batch = make([]batchStep, 0, steps)
}

// release returns the pooled scratch, emptied, so a pooled
// lowerScratch never holds an adopted backing.
func (c *compiler) release() {
	c.ls.transfers = c.ls.transfers[:0]
	c.ls.pay.reset()
	lowerScratchPool.Put(c.ls)
	if c.rr != nil {
		compileScratchPool.Put(c.rr.cs)
	}
}

// phase opens a phase.
func (c *compiler) phase(name string, rearrange int) {
	if c.limitErr != nil {
		return
	}
	if rearrange < 0 || int64(rearrange) > math.MaxUint32 {
		c.limitErr = fmt.Errorf("exec: phase %q rearranges %d blocks, outside the program format's [0, 2^32)", name, rearrange)
		return
	}
	c.phases = append(c.phases, phaseRec{name: name, rearrange: rearrange})
}

// step counts s into the open phase and queues it for lowering: the
// program format's limits, in schedule order, and the sizes its
// lowering needs.
func (c *compiler) step(s schedule.Step) {
	if c.limitErr != nil {
		return
	}
	if c.opt.Request != nil {
		defer c.lowerClock.since(time.Now())
	}
	pi := len(c.phases) - 1
	ph := &c.phases[pi]
	bs := batchStep{s: s, si: len(c.p.steps)}
	var one [1]schedule.Seg
	for i := range s.Transfers {
		tr := &s.Transfers[i]
		segs := routeLegs(tr, &one)
		if err := checkLimits(tr, segs); err != nil {
			c.limitErr = fmt.Errorf("exec: phase %q step %d: %w", ph.name, ph.steps, err)
			return
		}
		for _, seg := range segs {
			bs.links += seg.Hops
			pair := seg.Dim * 2
			if seg.Dir == topology.Neg {
				pair++
			}
			if pair < len(c.usedDims) {
				c.usedDims[pair] = true
			}
		}
		if len(tr.Payload) > 0 {
			bs.tLen++
			bs.pLen += len(tr.Payload)
		}
	}
	c.p.steps = append(c.p.steps, pstep{phaseIndex: pi, stepIndex: ph.steps, sharing: 1})
	c.shared = append(c.shared, s.Shared)
	ph.steps++
	c.numPayload += bs.pLen
	if c.numPayload > math.MaxInt32 {
		c.overflow = true
	}
	if bs.pLen > 0 && !c.p.replay {
		// The schedule is replayable: payload/Blocks coherence now binds
		// the steps lowered before this one too.
		c.p.replay = true
		if c.pendErr != nil && (c.lowerErr == nil || c.pendStep < c.lowerStep) {
			c.lowerErr, c.lowerStep = c.pendErr, c.pendStep
		}
	}
	if c.lowerErr != nil || c.overflow {
		return
	}
	if c.adopt && bs.pLen >= 1<<idPageBits {
		bs.ids = adoptable(s.Transfers, bs.pLen)
	}
	c.batch = append(c.batch, bs)
	c.batchT += bs.tLen
	if bs.ids == nil {
		c.batchP += bs.pLen
	}
}

// adoptable returns the m payload ids of trs as one slice of the
// backing they share when the payload-carrying transfers' payloads lie
// back to back in transfer order, the first one's capacity reaching
// over the rest; nil otherwise. The slice is the builder's memory: the
// compile checks the ids there and the reference replay rewrites them
// in place, with no copy.
func adoptable(trs []schedule.Transfer, m int) []int32 {
	var ids []int32
	off := 0
	for i := range trs {
		pay := trs[i].Payload
		if len(pay) == 0 {
			continue
		}
		if ids == nil {
			if cap(pay) < m {
				return nil
			}
			ids = pay[:m]
		} else if &ids[off] != &pay[0] {
			return nil
		}
		off += len(pay)
	}
	return ids
}

// flush lowers the queued steps and, unless an error already decides
// the compile, runs the reference replay over them.
func (c *compiler) flush() {
	b := c.batch
	if len(b) == 0 {
		return
	}
	batchT, batchP := c.batchT, c.batchP
	c.batch, c.batchT, c.batchP = b[:0], 0, 0
	if c.limitErr != nil || c.lowerErr != nil || c.overflow {
		clear(b)
		return
	}
	var t0 time.Time
	if c.opt.Request != nil {
		t0 = time.Now()
	}
	tBase := len(c.ls.transfers)
	c.ls.transfers = grow(c.ls.transfers, batchT)
	pOff, ok := 0, true
	if batchP > 0 {
		pOff, ok = c.ls.pay.reserve(batchP)
	}
	tOff := tBase
	for i := range b {
		c.stepT = append(c.stepT, int32(tOff))
		b[i].tOff = tOff
		tOff += b[i].tLen
		if b[i].ids == nil {
			b[i].pOff = pOff
			pOff += b[i].pLen
			continue
		}
		viewed := false
		if b[i].pOff, viewed = c.ls.pay.view(b[i].ids, b[i].pLen); !viewed {
			ok = false
		}
	}
	if !ok {
		c.overflow = true
		clear(b)
		return
	}
	c.stepHash = grow(c.stepHash, len(b))
	c.buildRouteTables()
	c.lowerBatch(b)
	for i := range b {
		b[i].s, b[i].ids = schedule.Step{}, nil
	}
	if c.opt.Request != nil {
		t0 = c.lowerClock.since(t0)
	}
	if h := afterLower.Load(); h != nil {
		(*h)(b[len(b)-1].si + 1)
	}
	if c.lowerErr != nil || !c.p.replay || c.replayErr != nil {
		return
	}
	if c.rr == nil {
		c.replayErr = c.startReplay()
	}
	if c.replayErr == nil {
		c.replayErr = c.replayBatch(b)
	}
	if c.opt.Request != nil {
		c.replayClock.since(t0)
	}
}

// grow extends s by n elements, at least doubling its capacity when it
// must move, so a table grown batch by batch copies each element about
// once. The new elements are not cleared.
func grow[E any](s []E, n int) []E {
	if len(s)+n > cap(s) {
		t := make([]E, len(s), max(len(s)+n, 2*cap(s)))
		copy(t, s)
		s = t
	}
	return s[:len(s)+n]
}

// buildRouteTables expands the per-(dim,dir) route table of every pair
// the counted steps use for the first time: on a torus every (node,
// dim, dir) single hop has a statically known successor and link id,
// so each pair used anywhere in the schedule is expanded to a flat
// table (successor<<32 | link id, one load per hop) exactly once and
// every step sharing that dimension walks the same table — no per-hop
// stride arithmetic or interface dispatch in the lowering loop. Fabrics
// with partial wiring (dragonfly global ports may be unwired for a
// given node) keep the per-segment route calls.
func (c *compiler) buildRouteTables() {
	tor, ok := c.f.(*topology.Torus)
	if !ok || c.usedDims == nil {
		return
	}
	n := c.n
	var fresh []int
	for pair, used := range c.usedDims {
		if used && (c.tabBuilt == nil || !c.tabBuilt[pair]) {
			fresh = append(fresh, pair)
		}
	}
	if len(fresh) == 0 {
		return
	}
	if c.tabNL == nil {
		c.tabNL = make([]uint64, len(c.usedDims)*n)
		c.tabBuilt = make([]bool, len(c.usedDims))
	}
	par.ForEach(0, len(fresh), func(lo, hi int) {
		var one [1]int32
		for _, pair := range fresh[lo:hi] {
			dim, dir := pair/2, topology.Pos
			if pair&1 == 1 {
				dir = topology.Neg
			}
			base := pair * n
			for v := 0; v < n; v++ {
				tor.AppendPathLinkIDs(one[:0], topology.NodeID(v), dim, dir, 1)
				next := tor.Advance(topology.NodeID(v), dim, dir, 1)
				c.tabNL[base+v] = uint64(uint32(next))<<32 | uint64(uint32(one[0]))
			}
		}
	})
	for _, pair := range fresh {
		c.tabBuilt[pair] = true
	}
}

// lowerBatch is the lowering pass over one batch: route expansion,
// per-step message maxima, the link-sharing serialization factor of
// Shared steps (counted per transfer while its freshly expanded link
// ids are still in L1), the one-port/contention checks, and each
// transfer's digest hash with its payload ids' range check and copy
// into the step's region of the lowered ids, in one loop
// (lowerTransfer; an adopted step's ids are not copied) — one parallel
// sweep over the batch's steps, each worker with its own claim and
// link scratch. Steps write disjoint regions of the lowered tables, so
// they fan out over the worker pool. The error kept is the lowest-step
// one — exactly what a serial left-to-right walk would have hit first.
func (c *compiler) lowerBatch(b []batchStep) {
	f, n, numBlocks := c.f, c.n, c.p.numBlocks
	replay, skip := c.p.replay, c.opt.SkipChecks
	tabNL, usedDims, domainTab := c.tabNL, c.usedDims, c.domainTab
	transfers := c.ls.transfers
	if w := par.Width(0, len(b)); len(c.work) < w {
		c.work = append(c.work, make([]lowerWork, w-len(c.work))...)
	}
	// A coherence error of a step lowered while no step has shown a
	// payload is only pending: workers record one, unformatted, only
	// while none is pending yet.
	pendOpen := c.pendErr == nil
	var ferr, pend par.FirstError
	par.ForEachWorker(0, len(b), func(w, lo, hi int) {
		wk := &c.work[w]
		var one [1]schedule.Seg
		pendFound := false
		for bi := lo; bi < hi; bi++ {
			bs := &b[bi]
			si := bs.si
			ps := &c.p.steps[si]
			phase := c.phases[ps.phaseIndex].name
			s := &bs.s
			if !skip && wk.linkClaim == nil {
				wk.linkClaim = make([]int32, c.numDomains)
			}
			// shareClaim counts a Shared step's per-domain uses as
			// (step ordinal + 1)<<32 | count: an entry from an earlier
			// step compares below the current epoch and reads as zero, so
			// the table never needs the per-step reset rewalk over the
			// step's links (a full extra pass over every expanded hop).
			if s.Shared && wk.shareClaim == nil {
				wk.shareClaim = make([]int64, c.numDomains)
			}
			links := growI32(wk.links, bs.links)
			wk.links = links
			lend := wk.lend[:0]
			lw := 0
			tw, pOff := bs.tOff, int32(bs.pOff)
			// Each transfer's digest hash and payload ids, in one loop
			// (lowerTransfer): the ids are hashed, range-checked and,
			// unless they were adopted, copied into the step's region of
			// the lowered ids. bad is the first transfer whose payload
			// breaks its declared Blocks or the id range, reported once
			// the step's one-port and contention checks pass.
			var region []int32
			if bs.ids == nil {
				region = c.ls.pay.at(bs.pOff, bs.pLen)
			}
			bad, sh := -1, uint64(digestSeed)
			sharing := int32(ps.sharing)
			for i := range s.Transfers {
				tr := &s.Transfers[i]
				linkBase := lw
				segs := routeLegs(tr, &one)
				h, inRange := lowerTransfer(tr, segs, region, numBlocks)
				sh = mix(sh, h)
				if region != nil {
					region = region[len(tr.Payload):]
				}
				if bad < 0 && (!inRange || len(tr.Payload) != tr.Blocks) {
					bad = i
				}
				cur := tr.Src
				for _, seg := range segs {
					pair := seg.Dim * 2
					if seg.Dir == topology.Neg {
						pair++
					}
					if tabNL != nil && pair < len(usedDims) {
						t := tabNL[pair*n : pair*n+n]
						at := int32(cur)
						for h := 0; h < seg.Hops; h++ {
							nl := t[at]
							links[lw] = int32(uint32(nl))
							lw++
							at = int32(nl >> 32)
						}
						cur = topology.NodeID(at)
					} else {
						f.AppendPathLinkIDs(links[lw:lw:lw+seg.Hops], cur, seg.Dim, seg.Dir, seg.Hops)
						lw += seg.Hops
						cur = f.Advance(cur, seg.Dim, seg.Dir, seg.Hops)
					}
				}
				lend = append(lend, int32(lw))
				if len(tr.Payload) > 0 {
					transfers[tw] = ptransfer{
						src: int32(tr.Src), dst: int32(tr.Dst),
						payOff: pOff, payLen: int32(len(tr.Payload)),
					}
					tw++
					pOff += int32(len(tr.Payload))
				}
				if s.Shared {
					// The transfer's own links were just expanded and are
					// hot; counting them here beats a per-step rewalk.
					epoch := int64(si+1) << 32
					for _, l := range links[linkBase:lw] {
						d := l
						if domainTab != nil {
							d = domainTab[l]
						}
						use := wk.shareClaim[d]
						if use < epoch {
							use = epoch
						}
						use++
						wk.shareClaim[d] = use
						if u := int32(use); u > sharing {
							sharing = u
						}
					}
				}
				if tr.Blocks > ps.maxBlocks {
					ps.maxBlocks = tr.Blocks
				}
				if h := lw - linkBase; h > ps.maxHops {
					ps.maxHops = h
				}
			}
			wk.lend = lend
			c.stepHash[si] = sh
			if s.Shared {
				ps.sharing = int(sharing)
			}
			if !skip {
				if wk.sendClaim == nil {
					wk.sendClaim = make([]int32, n) // node -> transfer index + 1
					wk.recvClaim = make([]int32, n) // node -> transfer index + 1
				}
				if err := checkStep(f, domainTab, s, phase, ps.stepIndex, links, lend, wk.sendClaim, wk.recvClaim, wk.linkClaim, &wk.touched); err != nil {
					ferr.Report(si, err)
					return
				}
			}
			if bad < 0 {
				continue
			}
			// Payload/Blocks coherence and the id range only bind
			// replayable programs — measure-only schedules declare Blocks
			// for the cost terms and carry no payloads.
			if !replay {
				if pendOpen && !pendFound {
					own := s.Transfers[bad]
					own.Segs = slices.Clone(own.Segs)
					pend.Report(si, &coherenceError{phase: phase, step: ps.stepIndex, tr: own})
					pendFound = true
				}
				continue
			}
			ferr.Report(si, payloadError(&s.Transfers[bad], phase, ps.stepIndex, numBlocks))
			return
		}
	})
	if err := ferr.Err(); err != nil {
		c.lowerErr, c.lowerStep = err, ferr.Index()
	}
	if err := pend.Err(); err != nil {
		c.pendErr, c.pendStep = err, pend.Index()
	}
}

// lowerTransfer is the lowering of one transfer whose route legs are
// segs, in one loop over its payload ids: it returns the transfer's
// digest hash, copies the ids to dst unless dst is nil, and reports
// whether every id lies in [0, numBlocks).
func lowerTransfer(tr *schedule.Transfer, segs []schedule.Seg, dst []int32, numBlocks int) (uint64, bool) {
	h := mix(digestSeed, uint64(uint32(tr.Src))<<32|uint64(uint32(tr.Dst)))
	h = mix(h, uint64(tr.Blocks))
	h = mix(h, uint64(len(segs)))
	for _, sg := range segs {
		h = mix(h, uint64(sg.Dim)<<40^uint64(sg.Dir)<<32^uint64(uint32(sg.Hops)))
	}
	pay := tr.Payload
	h = mix(h, uint64(len(pay)))
	lim, ok := uint32(numBlocks), true
	if dst != nil {
		dst = dst[:len(pay)]
	}
	i := 0
	for ; i+1 < len(pay); i += 2 {
		a, b := uint32(pay[i]), uint32(pay[i+1])
		if a >= lim || b >= lim {
			ok = false
		}
		h = mix(h, uint64(a)<<32|uint64(b))
		if dst != nil {
			dst[i], dst[i+1] = int32(a), int32(b)
		}
	}
	if i < len(pay) {
		a := uint32(pay[i])
		if a >= lim {
			ok = false
		}
		h = mix(h, uint64(a))
		if dst != nil {
			dst[i] = int32(a)
		}
	}
	return h, ok
}

// payloadError is the error of a transfer whose payload breaks its
// declared Blocks or carries an id outside [0, numBlocks).
func payloadError(tr *schedule.Transfer, phase string, step, numBlocks int) error {
	if len(tr.Payload) != tr.Blocks {
		return fmt.Errorf("exec: phase %q step %d transfer %v carries %d payload blocks, declares %d",
			phase, step, *tr, len(tr.Payload), tr.Blocks)
	}
	for _, id := range tr.Payload {
		if id < 0 || int(id) >= numBlocks {
			return fmt.Errorf("exec: phase %q step %d: transfer %v payload id %d outside [0, %d)",
				phase, step, *tr, id, numBlocks)
		}
	}
	return nil
}

// coherenceError is a step's payload/Blocks mismatch, held pending by
// a compile until a later step shows a payload, and formatted only if
// it is reported. It keeps a copy of the transfer, not the step.
type coherenceError struct {
	phase string
	step  int
	tr    schedule.Transfer
}

func (e *coherenceError) Error() string {
	return fmt.Sprintf("exec: phase %q step %d transfer %v carries %d payload blocks, declares %d",
		e.phase, e.step, e.tr, len(e.tr.Payload), e.tr.Blocks)
}

// err returns the error that decides the compile, if any.
func (c *compiler) err() error {
	switch {
	case c.limitErr != nil:
		return c.limitErr
	case c.overflow:
		return fmt.Errorf("exec: %d payload ids exceed the program format's 2^31 limit", c.numPayload)
	case c.lowerErr != nil:
		return c.lowerErr
	}
	return c.replayErr
}

// finish completes the compile once every step was taken: the measure
// and the digest, then — for a replayable schedule — delivery and the
// descriptor plan, and the sealed program file.
func (c *compiler) finish() (*Program, error) {
	c.flush()
	req := c.opt.Request
	c.lowerClock.record(req, obs.StageLower)
	if err := c.err(); err != nil {
		c.replayClock.record(req, obs.StageReferenceReplay)
		return nil, err
	}
	p := c.p
	p.numPhases = len(c.phases)
	p.numPayload = c.numPayload
	// Measure accumulation (serial: order-dependent sums).
	for si := range p.steps {
		ps := &p.steps[si]
		if ps.sharing > p.maxSharing {
			p.maxSharing = ps.sharing
		}
		p.measure.Steps++
		p.measure.Blocks += ps.maxBlocks * ps.sharing
		p.measure.Hops += ps.maxHops
	}
	for _, ph := range c.phases {
		p.measure.RearrangedBlocks += ph.rearrange
	}
	p.digest = foldDigest(c.phases, c.shared, c.stepHash)
	c.stepT = append(c.stepT, int32(len(c.ls.transfers)))
	if p.replay {
		var t0 time.Time
		if req != nil {
			t0 = time.Now()
		}
		low, err := c.finishReplay()
		if req != nil {
			c.replayClock.since(t0)
		}
		c.replayClock.record(req, obs.StageReferenceReplay)
		if err != nil {
			return nil, err
		}
		// The descriptor replay plan (the append-only log layout, the log
		// moves' strided gathers and the per-node delivery descriptors),
		// built from the reference replay's artifacts. See descriptor.go.
		psp := req.Stage(obs.StagePlanDescriptors)
		err = p.planDescriptors(low)
		psp.End()
		if err != nil {
			return nil, err
		}
		compileDescPrograms.Add(1)
	}
	ssp := req.Stage(obs.StageSeal)
	defer ssp.End()
	if !p.replay {
		if _, err := p.newCore(0, 0); err != nil {
			return nil, err
		}
	}
	seal(p.core)
	pg, err := newProgram(p.core, p.fab, true)
	if err != nil {
		return nil, fmt.Errorf("exec: compile wrote a program it cannot prove: %w", err)
	}
	return pg, nil
}

// idPageBits sets the page size of idPages: 2^14 ids (64 KiB).
const idPageBits = 14

// idPages is the lowered payload ids: a store of int32 ids addressed by
// an int32 offset that grows batch by batch and never moves what it
// holds. The offset space is cut into pages of 2^idPageBits ids. Each
// backing starts at a page boundary and is viewed from each of its
// pages' starts, so every region, contiguous within one backing, is
// one page lookup away (at). Two kinds of backing share the space:
//   - own backings, reused across compiles, which reserve fills with
//     copied ids. A compile's first is sized exactly (Compile reserves
//     its whole schedule at once); later ones take at least a page. A
//     flat table grown by doubling, as the transfer table is, copies
//     and drops its ids as it grows: for ring at 16×16 (nearly a
//     million ids) that cost a cold compile about 3 ms and 4 MiB of
//     peak RSS on a 2-vCPU host.
//   - adopted backings: a streamed step's ids where its builder wrote
//     them (view), checked and later rewritten in place, never copied.
//     Each takes whole pages of the offset space, so only a step that
//     fills at least a page is adopted; reset drops them.
type idPages struct {
	pages       [][]int32 // page k views its backing from offset k<<idPageBits on
	bufs        [][]int32 // own backings, reused across compiles
	nbuf        int       // own backings in use by this compile
	free, limit int       // the current own backing's unreserved offsets
}

// reset empties the store for the next compile, dropping every view of
// an adopted backing.
func (s *idPages) reset() {
	clear(s.pages)
	s.pages = s.pages[:0]
	s.nbuf, s.free, s.limit = 0, 0, 0
}

// reserve returns the offset of m contiguous ids in an own backing,
// false when the offset space is exhausted.
func (s *idPages) reserve(m int) (int, bool) {
	if s.free+m <= s.limit {
		off := s.free
		s.free += m
		return off, true
	}
	size := m
	if s.nbuf > 0 {
		size = max(m, 1<<idPageBits)
	}
	var buf []int32
	if s.nbuf < len(s.bufs) && cap(s.bufs[s.nbuf]) >= size {
		buf = s.bufs[s.nbuf]
	} else {
		buf = make([]int32, size)
		if s.nbuf < len(s.bufs) {
			s.bufs[s.nbuf] = buf
		} else {
			s.bufs = append(s.bufs, buf)
		}
	}
	buf = buf[:cap(buf)]
	off, ok := s.view(buf, m)
	if !ok {
		return 0, false
	}
	s.nbuf++
	s.free, s.limit = off+m, min(off+len(buf), math.MaxInt32)
	return off, true
}

// view appends the pages of buf, whose first m ids a region takes,
// from the next page boundary, and returns the region's offset, false
// when the offset space is exhausted. A streamed compile adopts a
// builder's backing through it (see adoptable).
func (s *idPages) view(buf []int32, m int) (int, bool) {
	off := len(s.pages) << idPageBits
	if off+m > math.MaxInt32 {
		return 0, false
	}
	for q := 0; q<<idPageBits < len(buf); q++ {
		s.pages = append(s.pages, buf[q<<idPageBits:])
	}
	return off, true
}

// at returns the n ids at off. An empty region's offset may lie past
// the last page (a backing can end on a page boundary), so it is
// answered without a page.
func (s *idPages) at(off, n int) []int32 {
	if n == 0 {
		return nil
	}
	pg := s.pages[off>>idPageBits]
	o := off & (1<<idPageBits - 1)
	return pg[o : o+n]
}

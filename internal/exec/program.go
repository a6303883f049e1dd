package exec

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"unsafe"

	"torusx/internal/block"
	"torusx/internal/costmodel"
	"torusx/internal/obs"
	"torusx/internal/par"
	"torusx/internal/schedule"
	"torusx/internal/topology"
)

// This file is the compilation layer between the schedule IR and the
// executor: Compile validates a schedule exactly once and writes it as
// a program file (codec.go) — dense integer ids for every traffic
// block (origin*n + dest), per-step cost terms and sharing factors
// precomputed, and the descriptor replay plan derived from a
// compile-time reference replay (descriptor.go) — which it then views
// as a Program, so that replaying the same schedule again costs no
// re-validation, no route walking, no hashing and (with a reused Arena)
// no allocation. The structural checks of independent steps fan out
// over internal/par, so first-touch (compile) latency on large tori
// drops with core count.

// ptransfer is one transfer as Compile's lowering keeps it, in pooled
// scratch, for the reference replay and the descriptor planner.
type ptransfer struct {
	src, dst int32
	// payOff/payLen window the payload ids (origin*n+dest), in schedule
	// payload order.
	payOff, payLen int32
}

// pstep is one step's header in the program file.
type pstep struct {
	phaseIndex int
	stepIndex  int // index within the phase
	sharing    int // link-sharing serialization factor (1 unless Shared)
	maxBlocks  int
	maxHops    int
	// moved is the element count the step's log moves copy, which
	// decides whether the parallel replay fans the step out
	// (fanOutElems). Derived when a program is viewed, never serialized.
	moved int
}

// Program is a compiled schedule: a view over its program file (see
// codec.go), the validated, densely indexed form the executor replays.
// Compile writes the file and DecodeProgram reads one back; either way
// the Program is the same view. A Program is immutable after it is
// built (bar SetSource, which precedes sharing) and safe for
// concurrent use; per-run mutable state lives in an Arena.
type Program struct {
	fab topology.Fabric

	n         int // nodes
	numBlocks int // dense block-id space: n*n
	replay    bool

	steps      []pstep
	numPhases  int
	measure    costmodel.Measure
	maxSharing int

	// Replay-only fields. trafficIDs is nil under the full matrix, whose
	// ids are 0..n²-1 in matrix order.
	trafficIDs []int32 // declared traffic as dense ids, in matrix order
	perDest    []int32 // blocks each node must finally hold

	// fullTraffic records that the program was compiled against the
	// implicit all-to-all matrix (Options.Traffic nil); neither the
	// program nor its file keeps an id table then, and arenas write the
	// initial ids arithmetically.
	fullTraffic bool
	// period, when positive, records that every node's initial blocks
	// lie in relative order under the lattice of that period
	// (flagRelative, classes.go): node o's block of rank k is
	// B[o, t_o+k], t_o its lattice vector. Only full-traffic torus
	// programs carry one.
	period int
	// classes is the number of node classes Compile planned with; 0 on
	// a decoded program, whose file does not record it.
	classes int

	// Descriptor replay plan (see descriptor.go); all nil on
	// measure-only programs. moves are the log moves in step order,
	// step si's at [moveOff[si], moveOff[si+1]); descBase is the n+1
	// prefix of the per-node log regions; node v's delivery descriptors
	// are descBacking[deliverOff[v]:deliverOff[v+1]], in rank order.
	moves       []logMove
	moveOff     []int32
	descBacking []xdesc
	descBase    []int32
	deliverOff  []int32
	// finalBase is the dense delivery layout: node v's blocks occupy
	// [finalBase[v], finalBase[v+1]) of a delivery buffer; maxPerDest is
	// the largest node's share, the size of RunArena's per-worker gather
	// scratch. recip is the delivery pass's reciprocal of n (see
	// divShift). All derived from perDest and n, never serialized.
	finalBase  []int32
	maxPerDest int
	recip      uint64
	// numPayload is the schedule's payload id count: one replay's
	// gathers copy each of those elements once (BytesMoved is
	// 4*numPayload).
	numPayload int

	// core is the program file every table above but the derived ones
	// views; digest is the schedule digest its header carries. The file
	// holds no schedule: Schedule() re-plans it from source at most
	// once, checks it against digest, and memoizes the outcome in sched
	// and schedErr.
	core      []byte
	digest    uint64
	source    func() (*schedule.Schedule, error)
	schedOnce sync.Once
	sched     *schedule.Schedule
	schedErr  error

	// arena is the one released arena the program retains across
	// garbage collections; arenas pools the overflow of concurrent
	// replays, which the collector may drop. See AcquireArena and
	// ReleaseArena.
	arena  atomic.Pointer[Arena]
	arenas sync.Pool
}

// SetSource records how to rebuild the program's schedule: a function
// that plans it again, such as the builder call that produced the
// schedule Compile was given. Record it before the program is shared;
// Schedule() calls it at most once. The program cache records the
// builder for every program it serves, and Run records the schedule it
// was given.
func (p *Program) SetSource(src func() (*schedule.Schedule, error)) { p.source = src }

// Schedule returns the program's schedule, re-planned from its source
// on first call and checked against the digest Compile recorded; later
// calls return the same outcome. The schedule is semantically identical
// to the one Compile was given. A program with no source, a source that
// fails, or a source that no longer builds the compiled schedule (a
// digest mismatch) returns nil and an error. Replays never need the
// schedule, so none of these errors touches an untraced run.
func (p *Program) Schedule() (*schedule.Schedule, error) {
	p.schedOnce.Do(func() { p.sched, p.schedErr = p.replan() })
	return p.sched, p.schedErr
}

// replan runs the source and checks what it built against the digest.
func (p *Program) replan() (*schedule.Schedule, error) {
	if p.source == nil {
		return nil, errors.New("exec: program has no schedule source to re-plan from")
	}
	sc, err := p.source()
	if err != nil {
		return nil, fmt.Errorf("exec: re-plan: %w", err)
	}
	if sc == nil || sc.Fabric == nil || sc.Fabric.Fingerprint() != p.fab.Fingerprint() {
		return nil, fmt.Errorf("exec: re-plan built no schedule on fabric %s", p.fab.Fingerprint())
	}
	if d := scheduleDigest(sc); d != p.digest {
		return nil, fmt.Errorf("exec: re-planned schedule has digest %016x, the program was compiled from %016x", d, p.digest)
	}
	return sc, nil
}

// NumPhases returns the number of phases of the compiled schedule.
func (p *Program) NumPhases() int { return p.numPhases }

// Replayable reports whether the program carries payloads and its runs
// replay and deliver blocks (rather than only reporting the measure).
func (p *Program) Replayable() bool { return p.replay }

// Measure returns the compile-time cost measure of the program's
// schedule — identical to the Measure every Run reports. Exposed so
// cost-model planners can rank compiled candidates without replaying.
func (p *Program) Measure() costmodel.Measure { return p.measure }

// MaxSharing returns the largest link-sharing serialization factor of
// any step, as Run would report it.
func (p *Program) MaxSharing() int { return p.maxSharing }

// SizeBytes estimates the bytes the program holds; program caches use
// it as the eviction weight. It counts the replay core — the step
// headers, the traffic ids, the delivery counts and layout, and the
// replay plan. A schedule Schedule() re-planned stays outside the
// weight, as it stays outside a replay-only process's resident set. So
// do arenas: a replayed program that stays reachable also pins the one
// arena it retains (see Arena), whose size is the block log, set by the
// program's layout.
func (p *Program) SizeBytes() int64 {
	size := int64(unsafe.Sizeof(*p))
	size += int64(len(p.steps)) * int64(unsafe.Sizeof(pstep{}))
	size += int64(len(p.trafficIDs))*4 + int64(len(p.perDest))*4
	size += int64(len(p.moves)) * int64(unsafe.Sizeof(logMove{}))
	size += int64(len(p.descBacking)) * int64(unsafe.Sizeof(xdesc{}))
	size += int64(len(p.moveOff)+len(p.descBase)+len(p.deliverOff)+len(p.finalBase)) * 4
	return size
}

// BytesMoved returns the bytes one replay's gathers physically copy:
// every payload element once, through a log move or the delivery pass.
// Every RunArena reports the same value in Result.BytesMoved and the
// exec.bytes_moved telemetry counter.
func (p *Program) BytesMoved() int64 { return int64(p.numPayload) * 4 }

// ReplayStats summarizes the compiled replay plan for reporting
// (aapebench's registry smoke, debugging).
type ReplayStats struct {
	Replayable bool
	DescCount  int // strided descriptors across log moves and deliveries
	LogSlots   int // int32 slots of the block log every arena allocates
	// LastHopOnly: the program has no log moves — every payload
	// transfer is the final mover of all it carries, so the whole
	// replay is the delivery pass and ReplayInto writes no arena
	// scratch.
	LastHopOnly bool
	// Classes is the number of node classes Compile planned the
	// program with: one reference replay and one plan per class (see
	// classes.go), the node count when the schedule declared no lattice
	// or failed its check. 0 on a decoded program.
	Classes int
}

// Stats reports the shape of the program's replay plan.
func (p *Program) Stats() ReplayStats {
	return ReplayStats{
		Replayable:  p.replay,
		DescCount:   len(p.descBacking),
		LogSlots:    p.logSlots(),
		LastHopOnly: p.replay && len(p.moves) == 0,
		Classes:     p.classes,
	}
}

// logSlots returns the length of the block log: the descBase prefix's
// last entry, or 0 on a measure-only program.
func (p *Program) logSlots() int {
	if p.descBase == nil {
		return 0
	}
	return int(p.descBase[p.n])
}

// DeliverySize returns the element count of the flat delivery layout —
// the required length of a ReplayInto destination: every node's final
// blocks, nodes in id order.
func (p *Program) DeliverySize() int {
	if p.finalBase == nil {
		return 0
	}
	return int(p.finalBase[p.n])
}

// DeliveryOffset returns node v's offset within the flat delivery
// layout: after ReplayInto(dst), node v's blocks are
// dst[DeliveryOffset(v):DeliveryOffset(v+1)], in arrival order —
// element-for-element the ids of Result.Buffers[v] from a RunArena.
func (p *Program) DeliveryOffset(v int) int {
	if p.finalBase == nil {
		return 0
	}
	return int(p.finalBase[v])
}

// checkLimits rejects a transfer the program format cannot hold: a
// block count outside [0, 2^32), no route legs or more than 255, or a
// leg on a dimension outside [0, 256) or of more than 65,535 hops.
func checkLimits(tr *schedule.Transfer, segs []schedule.Seg) error {
	if tr.Blocks < 0 || int64(tr.Blocks) > math.MaxUint32 {
		return fmt.Errorf("transfer %v declares %d blocks, outside the program format's [0, 2^32)", tr, tr.Blocks)
	}
	if len(segs) < 1 || len(segs) > math.MaxUint8 {
		return fmt.Errorf("transfer %v has %d route legs, the program format holds 1 to %d", tr, len(segs), math.MaxUint8)
	}
	for _, sg := range segs {
		if sg.Dim < 0 || sg.Dim > math.MaxUint8 || sg.Hops < 0 || sg.Hops > math.MaxUint16 {
			return fmt.Errorf("transfer %v route leg %+v exceeds the program format's limits (dimension below %d, at most %d hops)",
				tr, sg, math.MaxUint8+1, math.MaxUint16)
		}
	}
	return nil
}

// checkStep validates one step — one-port compliance and wormhole
// link-disjointness for non-Shared steps (the sharing factor of
// declared time-sharing steps was already counted during lowering).
// links holds the step's expanded routes, transfer i's ending at
// lend[i]. The claim tables are caller-owned dense scratch, reset via
// the touched list; checkStep leaves them zeroed on every return path
// so one set serves a whole chunk of steps. linkClaim is indexed by
// contention domain: domainTab maps link ids to domains and is nil on
// identity-domain fabrics, where link ids index directly.
func checkStep(f topology.Fabric, domainTab []int32, s *schedule.Step, phase string, si int, links, lend []int32,
	sendClaim, recvClaim, linkClaim []int32, touched *[]int32) error {
	var err error
	for i := range s.Transfers {
		tr := &s.Transfers[i]
		if c := sendClaim[tr.Src]; c != 0 {
			err = &schedule.OnePortError{Phase: phase, Step: si, Node: tr.Src,
				Role: "send", A: s.Transfers[c-1], B: *tr}
			break
		}
		sendClaim[tr.Src] = int32(i + 1)
		if c := recvClaim[tr.Dst]; c != 0 {
			err = &schedule.OnePortError{Phase: phase, Step: si, Node: tr.Dst,
				Role: "receive", A: s.Transfers[c-1], B: *tr}
			break
		}
		recvClaim[tr.Dst] = int32(i + 1)
	}
	for i := range s.Transfers {
		sendClaim[s.Transfers[i].Src] = 0
		recvClaim[s.Transfers[i].Dst] = 0
	}
	if err == nil && !s.Shared {
		start := int32(0)
		for i := range s.Transfers {
			for _, l := range links[start:lend[i]] {
				d := l
				if domainTab != nil {
					d = domainTab[l]
				}
				if c := linkClaim[d]; c != 0 {
					err = &schedule.ContentionError{Phase: phase, Step: si,
						Link: f.LinkAt(int(l)), A: s.Transfers[c-1], B: s.Transfers[i]}
					break
				}
				linkClaim[d] = int32(i + 1)
				*touched = append(*touched, d)
			}
			if err != nil {
				break
			}
			start = lend[i]
		}
		for _, l := range *touched {
			linkClaim[l] = 0
		}
		*touched = (*touched)[:0]
	}
	return err
}

// Arena is the reusable per-run scratch of a compiled program: the
// descriptor replay's block log, and RunArena's per-worker gather
// scratch and delivery buffers, allocated once per arena so
// steady-state replays allocate (nearly) nothing. An Arena is not safe
// for concurrent use; create one per goroutine with NewArena, or borrow
// one from the program with AcquireArena. Result.Buffers returned by
// RunArena alias arena memory and are valid until the next RunArena
// call on the same arena (or its release back to the program).
// An arena whose run returned an error must be discarded; ReleaseArena
// drops such arenas on the floor.
//
// Memory contract: a program that has been replayed through
// AcquireArena/ReleaseArena keeps one arena for as long as the program
// itself is reachable, garbage collections included, so each replayed,
// reachable program pins one arena on top of its SizeBytes. Arenas
// beyond that one, released by concurrent replays, are pooled and may
// be reclaimed by any collection.
type Arena struct {
	// prog is the program the arena is lent to, nil while it sits
	// released in that program's slot or pool: a kept arena holds no
	// reference back, so a program retaining one stays collectable (and
	// finalizable), and a released arena is refused until re-acquired.
	prog *Program

	// log is the block log: per-node regions at the program's descBase
	// offsets, each node's initial blocks written at allocation and
	// never overwritten, then its insert windows, which a recycled
	// layout lays over windows that died (see descriptor.go). Every
	// position is fixed at compile time and every read follows the
	// write it reads in the same replay, so repeat replays rewrite each
	// window with the values it held — no per-run reset.
	log []int32
	// out are the Result.Buffers RunArena materializes into, carved
	// from one backing on the arena's first RunArena. scratch holds
	// tileWidth maxPerDest-sized node windows per delivery worker:
	// RunArena gathers and checks each node's ids there, never in a
	// DeliverySize() buffer.
	out     []*block.Buffer
	scratch []int32
	bad     bool // a replay errored; the arena must not be kept

	// Cached per-step sender partitions for the parallel path (nil for
	// steps that run inline), keyed by the worker count and fan-out
	// threshold they were built for.
	bucketsBuilt  bool
	bucketWorkers int
	bucketMin     int
	srcBuckets    [][][]int
}

// NewArena returns a fresh scratch arena for p: its block log of
// Stats().LogSlots slots, with every node's initial blocks written.
func (p *Program) NewArena() *Arena {
	arenaCreates.Add(1)
	a := &Arena{prog: p}
	if !p.replay {
		return a
	}
	a.log = make([]int32, p.logSlots())
	adviseHugePages(a.log)
	if p.fullTraffic {
		// Node o starts with ids o*n .. o*n+n-1, in matrix order, or
		// under relative order with B[o, t_o+k] at rank k.
		var sh torusShape
		if p.period > 0 {
			sh = shapeOf(p.fab.(*topology.Torus))
		}
		for o := 0; o < p.n; o++ {
			id := int32(o * p.n)
			row := a.log[p.descBase[o] : int(p.descBase[o])+p.n]
			if p.period > 0 {
				sh.addRow(sh.latVec(o, p.period), id, row)
				continue
			}
			for k := range row {
				row[k] = id + int32(k)
			}
		}
		return a
	}
	cur := make([]int32, p.n)
	copy(cur, p.descBase[:p.n])
	for _, id := range p.trafficIDs {
		o := int(id) / p.n
		a.log[cur[o]] = id
		cur[o]++
	}
	return a
}

// hugePage is the size and alignment of a transparent huge page on the
// hosts the replay is tuned for (x86-64 and arm64 with 4 KiB base pages).
const hugePage = 2 << 20

// hugePageRange returns the elements [lo, hi) of s whose bytes are the
// whole hugePage-aligned pages s spans; lo == hi when it spans none. The
// block log is advised onto huge pages over this range only (see
// adviseHugePages), so the advice never reaches memory the log shares a
// page with.
func hugePageRange(s []int32) (lo, hi int) {
	if len(s) == 0 {
		return 0, 0
	}
	base := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	first := (base + hugePage - 1) &^ (hugePage - 1)
	last := (base + 4*uintptr(len(s))) &^ (hugePage - 1)
	if last <= first {
		return 0, 0
	}
	return int(first-base) / 4, int(last-base) / 4
}

// AcquireArena returns an arena for p: the one p retains if it is
// free, else one from p's pool, else a NewArena. Concurrent replays of
// one shared (e.g. cached) program should bracket every run with
// AcquireArena and ReleaseArena so the arena is reused instead of
// rebuilt; both are safe for concurrent use. The retained arena
// survives garbage collection, so a program replayed one request at a
// time builds its arena once (see Arena for the memory contract).
func (p *Program) AcquireArena() *Arena {
	arenaAcquires.Add(1)
	a := p.arena.Swap(nil)
	if a == nil {
		a, _ = p.arenas.Get().(*Arena)
	}
	if a == nil {
		return p.NewArena()
	}
	a.prog = p
	return a
}

// ReleaseArena gives a back to p. The caller must be done with the
// previous RunArena result — its Buffers alias arena memory — and with
// a itself: a released arena is refused by RunArena and ReplayInto
// until AcquireArena lends it again. The first released arena fills
// the slot p retains across garbage collections; while that slot is
// taken, released arenas go to a pool the collector may empty. Arenas
// that do not belong to p, are already released, or whose last run
// errored are discarded instead of kept.
func (p *Program) ReleaseArena(a *Arena) {
	if a == nil || a.prog != p || a.bad {
		return
	}
	arenaReleases.Add(1)
	a.prog = nil
	if !p.arena.CompareAndSwap(nil, a) {
		p.arenas.Put(a)
	}
}

// Run executes the program with a one-shot arena. For replay-many
// callers, allocate an Arena once with NewArena and call RunArena.
func (p *Program) Run(opt Options) (*Result, error) {
	return p.RunArena(p.NewArena(), opt)
}

// RunArena executes the program using a's scratch. It replays exactly
// as ReplayInto does, except that the delivery pass gathers each node's
// ids into a node-sized arena scratch and, right after checking that
// each is addressed to its node, writes the node's blocks into the
// arena's reused Result.Buffers. Options.Serial and Options.Workers
// choose the replay path; Options.Traffic was compiled in and is
// ignored here. A warm arena allocates only the Result; the arena's
// first run also carves the delivery buffers from one backing.
func (p *Program) RunArena(a *Arena, opt Options) (*Result, error) {
	if a == nil || a.prog != p {
		return nil, fmt.Errorf("exec: arena does not belong to this program, or was released")
	}
	res := &Result{Measure: p.measure, MaxSharing: p.maxSharing}
	if p.replay {
		sp := opt.Request.Stage(obs.StageReplay)
		if a.out == nil {
			a.out = block.NewBuffers(p.perDest)
		}
		if err := a.replay(opt, nil, a.out); err != nil {
			sp.End()
			a.bad = true
			return nil, err
		}
		res.Replayed = true
		res.Buffers = a.out
		res.BytesMoved = p.BytesMoved()
		noteReplay(p)
		sp.End()
	}
	if opt.Telemetry.Enabled() {
		// The schedule is re-planned from the program's source here, on
		// the first traced run; untraced replays never pay for it.
		msp := opt.Request.Stage(obs.StageMaterialize)
		sc, err := p.Schedule()
		msp.End()
		if err != nil {
			return nil, fmt.Errorf("exec: telemetry: %w", err)
		}
		res.Schedule = sc
		emitRun(opt.Telemetry, sc, res, p)
	}
	return res, nil
}

// fanOutElems is the size, in elements gathered, from which the
// parallel replay fans work out over the worker pool: a step's log
// moves, sharded by sender with a barrier after the step, and the
// delivery pass, sharded by node. Smaller work runs inline on the
// caller, where spawning goroutines and waiting costs more than the
// gathers it would split. Set from the crossover sweeps in
// EXPERIMENTS.md ("Warm replay through the dense delivery layout",
// "Deliver once"). A variable only so tests can lower it and push every
// step and delivery through the fan-out.
var fanOutElems = 1 << 18

// replay executes the log moves step by step in schedule order, then
// the delivery pass from the final log: into dst, a DeliverySize()
// dense delivery buffer (ReplayInto), or, when out is non-nil, through
// the arena's node-sized gather scratch into the materialized buffers
// (RunArena; see deliver). Under Options.Serial everything runs on the
// caller. Otherwise a step whose log moves copy at least fanOutElems
// elements is sharded by sender — a move reads its sender's region
// (conflict-free by the sender shard) and writes an insert window no
// other move of its step reads or writes (checkPlan), so one barrier
// per step suffices — and so is a delivery pass of at least fanOutElems
// elements, by node; smaller work runs inline. No per-run reset: every
// slot's contents are identical run over run.
func (a *Arena) replay(opt Options, dst []int32, out []*block.Buffer) error {
	p := a.prog
	var buckets [][][]int
	if !opt.Serial {
		buckets = a.stepBuckets(opt.Workers)
	}
	for si := range p.steps {
		moves := p.moves[p.moveOff[si]:p.moveOff[si+1]]
		if buckets != nil && buckets[si] != nil {
			a.fanOut(buckets[si], moves)
			continue
		}
		for i := range moves {
			a.move(&moves[i])
		}
	}
	dsp := opt.Request.Stage(obs.StageDeliver)
	defer dsp.End()
	if !opt.Serial && p.DeliverySize() >= fanOutElems {
		return a.deliverFanOut(opt.Workers, dst, out)
	}
	if out != nil {
		dst = a.gatherScratch(1)
	}
	return p.deliver(a.log, dst, out, 0, p.n)
}

// gatherScratch returns the arena's gather scratch, grown to tileWidth
// maxPerDest node windows for each of workers delivery workers.
func (a *Arena) gatherScratch(workers int) []int32 {
	if need := workers * a.prog.tileWidth() * a.prog.maxPerDest; len(a.scratch) < need {
		a.scratch = make([]int32, need)
	}
	return a.scratch
}

// fanOut runs a step's log moves over its sender buckets and waits for
// them. Kept out of replay so that only a fanned-out step builds the
// bucket callback.
func (a *Arena) fanOut(buckets [][]int, moves []logMove) {
	par.RunBucketsWorker(buckets, func(_, i int) { a.move(&moves[i]) })
}

// move executes one log move: a strided gather into its insert window.
func (a *Arena) move(m *logMove) {
	gather(a.log[m.insPos:m.insPos+m.payLen], a.log, a.prog.descBacking[m.descOff:m.descOff+m.descLen])
}

// stepBuckets returns the parallel path's per-step sender partitions,
// rebuilding them when the worker count or fanOutElems changed. Steps
// below fanOutElems get none, so a program without a big step builds
// nothing and its parallel replay allocates no more than a serial one.
func (a *Arena) stepBuckets(workers int) [][][]int {
	if a.bucketsBuilt && a.bucketWorkers == workers && a.bucketMin == fanOutElems {
		return a.srcBuckets
	}
	p := a.prog
	a.srcBuckets = nil
	for si := range p.steps {
		if p.steps[si].moved < fanOutElems {
			continue
		}
		moves := p.moves[p.moveOff[si]:p.moveOff[si+1]]
		if a.srcBuckets == nil {
			a.srcBuckets = make([][][]int, len(p.steps))
		}
		a.srcBuckets[si] = par.Buckets(workers, len(moves), func(i int) int { return int(moves[i].src) })
	}
	a.bucketsBuilt, a.bucketWorkers, a.bucketMin = true, workers, fanOutElems
	return a.srcBuckets
}

// divShift sets the delivery pass's division by a reciprocal:
// recip = ceil(2^divShift / n) gives x*recip >> divShift == x / n for
// every dense id x in [0, n²). With recip*n = 2^divShift + e, 0 <= e < n,
// x*recip / 2^divShift = x/n + x*e / (n * 2^divShift), and x*e < n³ stays
// below 2^divShift for every n whose n² ids fit an int32 (n < 46341), so
// the excess never reaches the next multiple of 1/n; x*recip stays below
// n*2^divShift + n² < 2^64 for the same n. n = 1 needs no special case.
const divShift = 48

func reciprocal(n int) uint64 { return (1<<divShift + uint64(n) - 1) / uint64(n) }

// divRecip returns x / n for x in [0, n²), given recip = reciprocal(n).
func divRecip(x uint32, recip uint64) uint32 { return uint32(uint64(x) * recip >> divShift) }

// deriveDelivery derives the dense delivery layout and the reciprocal
// of n from perDest and n, at compile and at decode.
func (p *Program) deriveDelivery() {
	p.finalBase = make([]int32, p.n+1)
	p.maxPerDest = 0
	for v := 0; v < p.n; v++ {
		p.finalBase[v+1] = p.finalBase[v] + p.perDest[v]
		p.maxPerDest = max(p.maxPerDest, int(p.perDest[v]))
	}
	p.recip = reciprocal(p.n)
}

// deliverTile and deliverTurn shape the delivery pass of a program
// without log moves (Stats().LastHopOnly: direct). Every delivery there
// reads the initial id matrix, so the pass is a transpose of it, and a
// node at a time it reads one id per cache line. The pass instead
// gathers deliverTile consecutive nodes together, deliverTurn ids per
// node per turn, so the nodes of a tile share the lines a turn reads.
// Programs with log moves gather a node at a time: tiles slowed three
// of those four cells' passes by 5–25% and left ring's within its
// spread. Set from the sweep in EXPERIMENTS.md ("Replay on the memory
// system's terms").
const (
	deliverTile = 16
	deliverTurn = 64
)

// tileWidth returns the nodes the delivery pass gathers together, and
// so the node windows each worker's gather scratch holds.
func (p *Program) tileWidth() int {
	if len(p.moves) == 0 {
		return deliverTile
	}
	return 1
}

// deliver is the delivery pass over nodes [lo, hi): it gathers each
// node's whole delivery range from the final log — into its range of
// dst, the dense delivery layout, or, when out is non-nil, into a
// node window of dst, the gather scratch (tileWidth windows of
// maxPerDest) — then settles the node (see settle). A program without
// log moves gathers its nodes a tile at a time (deliverTiles). Compile
// built, and the decoder proved, delivery descriptors that expand to
// exactly each node's count, so the counts hold by construction.
func (p *Program) deliver(log, dst []int32, out []*block.Buffer, lo, hi int) error {
	if p.tileWidth() > 1 {
		return p.deliverTiles(log, dst, out, lo, hi)
	}
	return p.deliverNodes(log, dst, out, lo, hi)
}

// deliverNodes is the delivery pass a node at a time.
func (p *Program) deliverNodes(log, dst []int32, out []*block.Buffer, lo, hi int) error {
	for v := lo; v < hi; v++ {
		ids := p.deliveryWindow(dst, out, v, 0)
		gather(ids, log, p.descBacking[p.deliverOff[v]:p.deliverOff[v+1]])
		if err := p.settle(ids, out, v); err != nil {
			return err
		}
	}
	return nil
}

// deliverTiles is the delivery pass deliverTile nodes at a time: the
// tile's nodes gather in turns of deliverTurn ids each, through one
// descriptor cursor per node, and are then settled in node order, so
// the lowest misdelivered node's error is the one returned.
func (p *Program) deliverTiles(log, dst []int32, out []*block.Buffer, lo, hi int) error {
	var ids [deliverTile][]int32
	var cur [deliverTile]cursor
	for t := lo; t < hi; t += deliverTile {
		w := min(deliverTile, hi-t)
		longest := 0
		for j := 0; j < w; j++ {
			ids[j] = p.deliveryWindow(dst, out, t+j, j)
			cur[j] = cursor{d: int(p.deliverOff[t+j])}
			longest = max(longest, len(ids[j]))
		}
		for off := 0; off < longest; off += deliverTurn {
			for j := 0; j < w; j++ {
				if off < len(ids[j]) {
					cur[j].gather(ids[j][off:min(off+deliverTurn, len(ids[j]))], log, p.descBacking)
				}
			}
		}
		for j := 0; j < w; j++ {
			if err := p.settle(ids[j], out, t+j); err != nil {
				return err
			}
		}
	}
	return nil
}

// deliveryWindow returns where node v's delivery is gathered: its range
// of the dense layout dst or, when out is non-nil, the first perDest[v]
// slots of the scratch dst's node window j.
func (p *Program) deliveryWindow(dst []int32, out []*block.Buffer, v, j int) []int32 {
	if out != nil {
		return dst[j*p.maxPerDest : j*p.maxPerDest+int(p.perDest[v])]
	}
	return dst[p.finalBase[v]:p.finalBase[v+1]]
}

// settle checks, while node v's gathered ids are hot, that every id is
// a valid block id addressed to v and, when out is non-nil, writes v's
// blocks into out[v] in place. A misaddressed id means program or arena
// state was corrupted.
func (p *Program) settle(ids []int32, out []*block.Buffer, v int) error {
	n, nb, recip := uint32(p.n), uint32(p.numBlocks), p.recip
	var blks []block.Block
	if out != nil {
		blks = out[v].Refill(len(ids))
	}
	for i, id := range ids {
		x := uint32(id)
		o := divRecip(x, recip)
		if x >= nb || x-o*n != uint32(v) {
			return fmt.Errorf("exec: node %d holds misdelivered block id %d", v, id)
		}
		if blks != nil {
			blks[i] = block.Block{Origin: topology.NodeID(o), Dest: topology.NodeID(v)}
		}
	}
	return nil
}

// deliverFanOut runs the delivery pass over contiguous node ranges on
// the worker pool. Every range writes only its own nodes' slots and
// buffers, gathers through its own tileWidth node windows of the
// arena's scratch, and reads the log, which no one writes any more; the
// error reported is the lowest node's, as the serial pass would return.
func (a *Arena) deliverFanOut(workers int, dst []int32, out []*block.Buffer) error {
	p := a.prog
	var scratch []int32
	if out != nil {
		scratch = a.gatherScratch(par.Width(workers, p.n))
	}
	m := p.tileWidth() * p.maxPerDest
	var ferr par.FirstError
	par.ForEachWorker(workers, p.n, func(w, lo, hi int) {
		d := dst
		if out != nil {
			d = scratch[w*m : (w+1)*m]
		}
		ferr.Report(lo, p.deliver(a.log, d, out, lo, hi))
	})
	return ferr.Err()
}

// ReplayInto replays the program and extracts the final deliveries
// directly into caller-owned memory: dst must have exactly
// DeliverySize() elements and receives every node's blocks as dense
// ids at the DeliveryOffset layout, element-for-element the buffers a
// RunArena would return, after the same addressing check of every id.
// The delivery pass gathers straight into dst, so a program without
// log moves (Stats().LastHopOnly) writes no arena scratch at all — the
// serial path then performs zero allocations. Options.Serial/Workers
// choose the path as in RunArena. ReplayInto reports no Result and
// emits no telemetry; callers that need either use RunArena.
func (p *Program) ReplayInto(a *Arena, dst []int32, opt Options) error {
	if a == nil || a.prog != p {
		return fmt.Errorf("exec: arena does not belong to this program, or was released")
	}
	if !p.replay {
		return fmt.Errorf("exec: ReplayInto on a measure-only program")
	}
	if len(dst) != p.DeliverySize() {
		return fmt.Errorf("exec: ReplayInto destination holds %d elements, want %d", len(dst), p.DeliverySize())
	}
	if err := a.replay(opt, dst, nil); err != nil {
		a.bad = true
		return err
	}
	return nil
}

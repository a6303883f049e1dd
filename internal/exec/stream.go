package exec

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"torusx/internal/obs"
	"torusx/internal/schedule"
	"torusx/internal/topology"
)

// streamSteps bounds the steps a streaming builder may run ahead of
// CompileStream, and so the emitted steps alive at once; it is also the
// most steps one lowering batch takes.
const streamSteps = 4

// oneStep, set by StreamOneStep, makes CompileStream take one step per
// batch and every streaming builder yield the processor after each step
// it emits.
var oneStep atomic.Bool

// StreamOneStep makes every CompileStream lower one step per batch, its
// builder yielding the processor after each step it emits, so tests
// exercise every batch boundary and interleaving, and returns a
// function that restores the production batching. It exists for tests.
func StreamOneStep() (restore func()) {
	prev := oneStep.Swap(true)
	return func() { oneStep.Store(prev) }
}

// CompileStream compiles the schedule emit builds on f, as Compile
// compiles a whole schedule, while emit is still building it: emit runs
// on its own goroutine and sends every step into its sink as soon as
// the step is built, at most streamSteps ahead of the compile, and the
// calling goroutine lowers, checks and reference-replays each batch of
// the steps sent so far, then lets the batch go. On a multi-core host
// the builder's plan therefore overlaps Compile's serial passes.
//
// CompileStream owns every step emit sends (schedule.Sink), payload ids
// included. A step whose payload-carrying transfers' payloads lie back
// to back in transfer order, the first one's capacity reaching over the
// rest, and fill at least a page of 2^14 ids is adopted: its ids are
// checked where the builder wrote them and rewritten there, in place,
// as the reference replay's arrival stamps. Other steps' ids are copied,
// as Compile copies them all.
//
// The program, and the error of a rejected schedule, are those of
// Compile(sc) on the schedule emit would build: a program-format error
// stops the builder early (its sink refuses further steps), any other
// compile error waits for the rest of the schedule, since a later step
// may break a rule that wins over it (see Compile). An error emit
// returns fails the compile with that error, unless the compile had
// already stopped the builder; a panic in emit is re-raised on the
// calling goroutine. CompileStream returns only after emit has
// returned. Options.Request (owned by the caller's goroutine, and only
// touched there) receives Compile's stages and a "plan" stage for the
// builder's run, which overlaps them.
func CompileStream(f topology.Fabric, emit func(schedule.Sink) error, opt Options) (*Program, error) {
	if f == nil {
		return nil, fmt.Errorf("exec: nil schedule")
	}
	c := newCompiler(f, opt)
	c.adopt = true
	defer c.release()
	batch := streamSteps
	if oneStep.Load() {
		batch = 1
	}
	st := startStream(emit, batch)
	defer st.stop()
	for c.limitErr == nil && c.receive(st, true) {
		for len(c.batch) < batch && c.receive(st, false) {
		}
		c.flush()
	}
	st.stop()
	if st.panicked {
		panic(st.panicVal)
	}
	opt.Request.Record(obs.StagePlan, st.start, st.end.Sub(st.start))
	if st.err != nil && c.limitErr == nil {
		return nil, st.err
	}
	return c.finish()
}

// receive takes the builder's next item into the compile, waiting for
// it when wait is set. It reports false once the builder has returned
// and every item was taken, or, without wait, when no item is ready.
// The item is dead once receive returns, so a flushed step is held by
// nothing the compile keeps.
func (c *compiler) receive(st *stream, wait bool) bool {
	var it streamItem
	ok := false
	if wait {
		it, ok = <-st.items
	} else {
		select {
		case it, ok = <-st.items:
		default:
		}
	}
	if !ok {
		return false
	}
	if it.phase {
		c.phase(it.name, it.rearrange)
	} else {
		c.step(it.s)
	}
	return true
}

// streamItem is a phase header or a step, as a builder emitted it.
type streamItem struct {
	s         schedule.Step
	phase     bool
	name      string
	rearrange int
}

// errStreamStopped is what a stream's sink returns once the compile
// takes no more steps.
var errStreamStopped = errors.New("exec: the compile takes no more steps")

// stream runs a builder on its own goroutine and is the sink it emits
// into. The builder's goroutine writes err, panicked, panicVal, start
// and end before it closes exit; the compile reads them after.
type stream struct {
	items    chan streamItem
	done     chan struct{} // closed when the compile takes no more steps
	exit     chan struct{} // closed when the builder has returned
	stopOnce sync.Once
	opened   bool // a phase is open (builder side)
	yield    bool // yield the processor after each step

	err        error
	panicked   bool
	panicVal   any
	start, end time.Time
}

func startStream(emit func(schedule.Sink) error, inFlight int) *stream {
	st := &stream{
		yield: inFlight == 1,
		items: make(chan streamItem, inFlight),
		done:  make(chan struct{}),
		exit:  make(chan struct{}),
	}
	go st.run(emit)
	return st
}

func (st *stream) run(emit func(schedule.Sink) error) {
	defer close(st.exit)
	defer close(st.items)
	defer func() {
		st.end = time.Now()
		if r := recover(); r != nil {
			st.panicked, st.panicVal = true, r
		}
	}()
	st.start = time.Now()
	st.err = emit(st)
}

// stop tells the builder to stop and waits until it has returned.
// Idempotent.
func (st *stream) stop() {
	st.stopOnce.Do(func() { close(st.done) })
	<-st.exit
}

func (st *stream) Phase(name string, rearrange int) {
	st.opened = true
	st.send(streamItem{phase: true, name: name, rearrange: rearrange})
}

func (st *stream) Step(s schedule.Step) error {
	if !st.opened {
		return schedule.ErrNoPhase
	}
	if !st.send(streamItem{s: s}) {
		return errStreamStopped
	}
	if st.yield {
		runtime.Gosched()
	}
	return nil
}

// send hands it to the compile, false once the compile stopped.
func (st *stream) send(it streamItem) bool {
	select {
	case <-st.done:
		return false
	default:
	}
	select {
	case st.items <- it:
		return true
	case <-st.done:
		return false
	}
}

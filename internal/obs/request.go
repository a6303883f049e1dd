package obs

import (
	"time"

	"torusx/internal/telemetry"
)

// Request traces one request's wall-clock walk through the serving
// pipeline: StartRequest anchors the clock, Stage opens a named span
// (cache-lookup, singleflight-wait, plan, prune, compile,
// plan-scoring, arena-acquire, replay — the seams internal/algorithm,
// internal/progcache and internal/exec instrument), Span.End closes
// it, and Finish folds the request and per-stage durations into the
// registry's latency histograms ("req.<name>.ns", "stage.<stage>.ns").
//
// A nil *Request is the disabled state: every method is a nil-safe
// no-op behind a single branch, and Stage returns the zero Span whose
// End is equally free — so instrumented seams pass requests through
// unconditionally, exactly like telemetry's nil *Recorder (the
// zero-cost contract is pinned by AllocsPerRun guards in
// internal/exec).
//
// A Request is owned by one goroutine — the one driving the request
// through the pipeline — and must not have Stage/Finish called
// concurrently. Stage spans may nest (plan-scoring contains per-
// candidate cache lookups and compiles) but are recorded flat, each
// with its own offsets, which is what the Perfetto rendering nests by
// containment.
type Request struct {
	reg      *Registry
	name     string
	id       int64
	start    time.Time
	stages   []stageRec
	finished bool
	total    int64 // ns, valid once finished
}

// stageRec is one recorded stage; offsets are nanoseconds since the
// request's start, end is -1 while the span is open.
type stageRec struct {
	name       string
	start, end int64
}

// Span is the handle for one open stage. The zero Span (from a nil
// request) is inert. Value type: opening and closing a span on an
// enabled request performs no allocation beyond the request's own
// stage slice growth.
type Span struct {
	r   *Request
	idx int
}

// StartRequest opens a traced request named name — the tools use
// their cell label, e.g. "direct+hotspot@torus:8x8". A nil registry
// returns a nil request, the disabled state.
func (r *Registry) StartRequest(name string) *Request {
	if r == nil {
		return nil
	}
	return &Request{
		reg:    r,
		name:   name,
		id:     r.reqID.Add(1),
		start:  time.Now(),
		stages: make([]stageRec, 0, 8),
	}
}

// ID returns the request's process-unique id (1-based); 0 on nil.
func (r *Request) ID() int64 {
	if r == nil {
		return 0
	}
	return r.id
}

// Name returns the request's name; "" on nil.
func (r *Request) Name() string {
	if r == nil {
		return ""
	}
	return r.name
}

// Stage opens a named wall-clock span at the current offset. No-op
// (returning the inert zero Span) on a nil request.
func (r *Request) Stage(name string) Span {
	if r == nil {
		return Span{}
	}
	r.stages = append(r.stages, stageRec{name: name, start: int64(time.Since(r.start)), end: -1})
	return Span{r: r, idx: len(r.stages) - 1}
}

// End closes the span at the current offset. Safe on the zero Span
// and idempotent.
func (s Span) End() {
	if s.r == nil {
		return
	}
	st := &s.r.stages[s.idx]
	if st.end < 0 {
		st.end = int64(time.Since(s.r.start))
	}
}

// Record adds a closed stage that opened at start and ran for d: a
// stage whose work another goroutine timed (a streamed compile's plan,
// run by the builder beside the compile), or whose work was split into
// pieces interleaved with other stages (a streamed compile's lower and
// reference-replay, recorded as one span of their summed time). No-op
// on a nil request.
func (r *Request) Record(name string, start time.Time, d time.Duration) {
	if r == nil {
		return
	}
	off := int64(start.Sub(r.start))
	r.stages = append(r.stages, stageRec{name: name, start: off, end: off + int64(d)})
}

// Finish closes the request: any stage still open is closed at the
// request's end (an error-path exit, not a bug), the total duration
// lands in histogram "req.<name>.ns" and each stage's duration in
// "stage.<stage>.ns". Idempotent; safe on nil.
func (r *Request) Finish() {
	if r == nil || r.finished {
		return
	}
	r.finished = true
	r.total = int64(time.Since(r.start))
	for i := range r.stages {
		if r.stages[i].end < 0 {
			r.stages[i].end = r.total
		}
	}
	r.reg.Histogram("req." + r.name + ".ns").Observe(r.total)
	for i := range r.stages {
		st := &r.stages[i]
		r.reg.Histogram("stage." + st.name + ".ns").Observe(st.end - st.start)
	}
}

// StageTiming is one stage's recorded interval, for tests and
// introspection.
type StageTiming struct {
	Name       string
	Start, End time.Duration // offsets from the request's start
}

// Stages returns the recorded stage intervals in open order.
func (r *Request) Stages() []StageTiming {
	if r == nil {
		return nil
	}
	out := make([]StageTiming, len(r.stages))
	for i, st := range r.stages {
		out[i] = StageTiming{Name: st.name, Start: time.Duration(st.start), End: time.Duration(st.end)}
	}
	return out
}

// Events converts a finished request into telemetry span events so the
// wall-clock pipeline timeline renders in the same Perfetto trace as
// the model-time stream: one ScopeRequest begin/end pair for the whole
// request plus a ScopeStage pair per stage, all stamped with label.
// Times are wall-clock *microseconds from the request's start* — a
// different clock than the model-time events' axis, kept apart in the
// trace by living on their own process track. The request id rides in
// the Phase field and the stage's open-order index in Step, which is
// what makes each pair's span key unique and canonically ordered.
// Returns nil for a nil or unfinished request.
func (r *Request) Events(label string) []telemetry.Event {
	if r == nil || !r.finished {
		return nil
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	out := make([]telemetry.Event, 0, 2+2*len(r.stages))
	base := telemetry.Event{
		Scope: telemetry.ScopeRequest, Name: r.name, Label: label,
		Phase: int(r.id), Step: -1, Transfer: -1,
	}
	begin := base
	begin.Kind = telemetry.SpanBegin
	end := base
	end.Kind, end.Time = telemetry.SpanEnd, us(r.total)
	out = append(out, begin, end)
	for i := range r.stages {
		st := &r.stages[i]
		sb := telemetry.Event{
			Kind: telemetry.SpanBegin, Scope: telemetry.ScopeStage, Name: st.name, Label: label,
			Phase: int(r.id), Step: i, Transfer: -1, Time: us(st.start),
		}
		se := sb
		se.Kind, se.Time = telemetry.SpanEnd, us(st.end)
		out = append(out, sb, se)
	}
	return out
}

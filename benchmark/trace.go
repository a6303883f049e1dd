package main

import (
	"encoding/json"
	"os"
	"runtime"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// a public entry point. Layer spans reuse the stage names internal/obs
// records inside the program; "request" is the root span of one timed
// request. Start is wall-clock Unix nanoseconds, so spans recorded by a
// child process line up with the parent's.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Req    int    `json:"req"`
	Cell   string `json:"cell"`
	Phase  string `json:"phase"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
	Allocs int64  `json:"allocs,omitempty"`
	t0     time.Time
}

// tracer keeps a run's spans in memory until the run writes them out.
// A nil tracer records nothing: the untraced pass runs the same code
// with tracing off.
type tracer struct {
	spans []span
	phase string // "setup" or "measure"
	req   int    // id of the current request
}

// begin opens a span and returns its id (0 on a nil tracer). A root
// "request" or "proc-spawn" span starts a new request id; every later
// span shares it until the next one.
func (t *tracer) begin(name string, parent int, cell string) int {
	if t == nil {
		return 0
	}
	if parent == 0 && (name == "request" || name == "proc-spawn") {
		t.req++
	}
	id := len(t.spans) + 1
	now := time.Now()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Req: t.req, Cell: cell,
		Phase: t.phase, Start: now.UnixNano(), t0: now})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	s := &t.spans[id-1]
	s.Dur = time.Since(s.t0).Nanoseconds()
}

// mallocs returns the process's heap allocation count, for attributing
// allocations to a span; reading it stops the world, so callers read it
// outside the span they attribute to. 0 on a nil tracer.
func (t *tracer) mallocs() uint64 {
	if t == nil {
		return 0
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// setAllocs records the allocations made since from on span id.
func (t *tracer) setAllocs(id int, from uint64) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].Allocs = int64(t.mallocs() - from)
}

// adopt merges the spans a child process recorded, hanging its roots
// under parent and renumbering its ids after the tracer's own.
func (t *tracer) adopt(spans []span, parent int) {
	if t == nil {
		return
	}
	base := len(t.spans)
	for _, s := range spans {
		s.ID += base
		if s.Parent == 0 {
			s.Parent = parent
		} else {
			s.Parent += base
		}
		s.Req, s.Phase = t.req, t.phase
		t.spans = append(t.spans, s)
	}
}

// layer returns the spans named name from the measured pass, or, when
// the workload's requests never call that layer, the ones its set-up
// recorded.
func (t *tracer) layer(name string) []span {
	var measure, setup []span
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		if s.Phase == "measure" {
			measure = append(measure, s)
		} else {
			setup = append(setup, s)
		}
	}
	if len(measure) > 0 {
		return measure
	}
	return setup
}

// requestTotals sums, over the measured requests, their durations, the
// durations of their direct children (the layer spans; they have no
// children of their own, so each one's self time is its duration) and
// the part of those spent in spans named only.
func (t *tracer) requestTotals(only string) (request, layers, named int64) {
	isReq := map[int]bool{}
	for _, s := range t.spans {
		if s.Name == "request" && s.Phase == "measure" {
			isReq[s.ID] = true
			request += s.Dur
		}
	}
	for _, s := range t.spans {
		if isReq[s.Parent] {
			layers += s.Dur
			if s.Name == only {
				named += s.Dur
			}
		}
	}
	return request, layers, named
}

// writeChrome writes the spans as a Chrome trace-event file, which
// ui.perfetto.dev opens. Set-up spans go on thread 0 and the measured
// requests on thread 1; one closed-loop client never overlaps itself,
// so each track nests by containment.
func (t *tracer) writeChrome(path, title string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Cat  string         `json:"cat,omitempty"`
		Args map[string]any `json:"args,omitempty"`
	}
	events := []event{
		{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": title}},
		{Name: "thread_name", Ph: "M", Pid: 1, Tid: 0, Args: map[string]any{"name": "set-up"}},
		{Name: "thread_name", Ph: "M", Pid: 1, Tid: 1, Args: map[string]any{"name": "client"}},
	}
	var origin int64
	if len(t.spans) > 0 {
		origin = t.spans[0].Start
	}
	for _, s := range t.spans {
		tid := 1
		if s.Phase == "setup" {
			tid = 0
		}
		args := map[string]any{"id": s.ID, "parent": s.Parent, "req": s.Req, "cell": s.Cell}
		if s.Allocs != 0 {
			args["allocs"] = s.Allocs
		}
		events = append(events, event{Name: s.Name, Ph: "X", Ts: float64(s.Start-origin) / 1e3,
			Dur: float64(s.Dur) / 1e3, Pid: 1, Tid: tid, Cat: s.Phase, Args: args})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

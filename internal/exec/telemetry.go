package exec

import (
	"torusx/internal/schedule"
	"torusx/internal/telemetry"
)

// Telemetry emission. Serial and parallel replays emit from this
// single serial post-pass, which walks the schedule in
// phase/step/transfer order after the run has validated: both modes
// therefore produce identical streams by construction. Emission runs
// only when the run asked for it — the hot path pays one
// Recorder.Enabled branch and nothing else, enforced by the overhead
// guard in telemetry_guard_test.go.
//
// The post-pass reads the program's precomputed per-step sharing
// factors, and expands each transfer's route to dense link ids in one
// reused buffer; the per-link accumulators are dense arrays indexed by
// topology.LinkID, emitted in AllLinks' canonical order (which is
// ascending in dense id).
//
// The timeline follows the paper's synchronous model: each step lasts
// ts + tc·maxBlocks·sharing·m + tl·maxHops, phases with a Rearrange
// annotation open with a rho·blocks·m rearrangement slice, and every
// transfer's slice spans its own ts + tc·blocks·m + tl·hops inside its
// step (unserialized — per-transfer attribution reports the message's
// own cost; the step span carries the sharing-serialized total).
func emitRun(rec *telemetry.Recorder, sc *schedule.Schedule, res *Result, pg *Program) {
	p := rec.Params
	f := sc.Fabric
	m := float64(p.M)

	// Per-link accumulation for the run-level utilization and
	// contention gauges: dense arrays over the link-id space, with a
	// touched list so per-step counts reset in O(links touched).
	numLinks := f.NumLinkIDs()
	busySteps := make([]int32, numLinks)
	maxShare := make([]int32, numLinks)
	perLink := make([]int32, numLinks)
	var touched []int32

	rec.Emit(telemetry.Event{Kind: telemetry.SpanBegin, Scope: telemetry.ScopeRun,
		Name: "run", Phase: -1, Step: -1, Transfer: -1})

	var links []int32 // the transfer in progress's route, as dense link ids
	var one [1]schedule.Seg
	now := 0.0
	global := 0
	for pi := range sc.Phases {
		ph := &sc.Phases[pi]
		rec.Emit(telemetry.Event{Kind: telemetry.SpanBegin, Scope: telemetry.ScopePhase,
			Name: ph.Name, Phase: pi, Step: -1, Transfer: -1, Time: now})
		var rearr float64
		if ph.Rearrange > 0 {
			rearr = p.Rho * float64(ph.Rearrange) * m
			rec.Emit(telemetry.Event{Kind: telemetry.SpanBegin, Scope: telemetry.ScopePhase,
				Name: "rearrange", Phase: pi, Step: -1, Transfer: -1, Time: now,
				Blocks: ph.Rearrange})
			rec.Emit(telemetry.Event{Kind: telemetry.SpanEnd, Scope: telemetry.ScopePhase,
				Name: "rearrange", Phase: pi, Step: -1, Transfer: -1, Time: now + rearr,
				Blocks: ph.Rearrange, Rearrange: rearr})
			now += rearr
		}
		for si := range ph.Steps {
			st := &ph.Steps[si]
			ps := &pg.steps[global]
			startup := p.Ts
			trans := p.Tc * float64(ps.maxBlocks*ps.sharing) * m
			prop := p.Tl * float64(ps.maxHops)
			rec.Emit(telemetry.Event{Kind: telemetry.SpanBegin, Scope: telemetry.ScopeStep,
				Name: "step", Phase: pi, Step: global, Transfer: -1, Time: now})
			for ti := range st.Transfers {
				tr := &st.Transfers[ti]
				tStartup := p.Ts
				tTrans := p.Tc * float64(tr.Blocks) * m
				tProp := p.Tl * float64(tr.TotalHops())
				ev := telemetry.Event{Scope: telemetry.ScopeTransfer,
					Name: tr.String(), Phase: pi, Step: global, Transfer: ti,
					Src: int(tr.Src), Dst: int(tr.Dst),
					Blocks: tr.Blocks, Hops: tr.TotalHops(),
					Dim: tr.Dim, Dir: int(tr.Dir)}
				ev.Kind, ev.Time = telemetry.SpanBegin, now
				rec.Emit(ev)
				ev.Kind, ev.Time = telemetry.SpanEnd, now+tStartup+tTrans+tProp
				ev.Startup, ev.Transmit, ev.Propagate = tStartup, tTrans, tProp
				rec.Emit(ev)
				links = links[:0]
				cur := tr.Src
				for _, sg := range routeLegs(tr, &one) {
					links = f.AppendPathLinkIDs(links, cur, sg.Dim, sg.Dir, sg.Hops)
					cur = f.Advance(cur, sg.Dim, sg.Dir, sg.Hops)
				}
				for _, id := range links {
					if perLink[id] == 0 {
						touched = append(touched, id)
					}
					perLink[id]++
				}
			}
			for _, id := range touched {
				busySteps[id]++
				if perLink[id] > maxShare[id] {
					maxShare[id] = perLink[id]
				}
				perLink[id] = 0
			}
			touched = touched[:0]
			end := now + startup + trans + prop
			rec.Emit(telemetry.Event{Kind: telemetry.SpanEnd, Scope: telemetry.ScopeStep,
				Name: "step", Phase: pi, Step: global, Transfer: -1, Time: end,
				Startup: startup, Transmit: trans, Propagate: prop,
				Value: float64(ps.sharing)})
			now = end
			global++
		}
		rec.Emit(telemetry.Event{Kind: telemetry.SpanEnd, Scope: telemetry.ScopePhase,
			Name: ph.Name, Phase: pi, Step: -1, Transfer: -1, Time: now, Rearrange: rearr})
	}
	rec.Emit(telemetry.Event{Kind: telemetry.SpanEnd, Scope: telemetry.ScopeRun,
		Name: "run", Phase: -1, Step: -1, Transfer: -1, Time: now})

	rec.Counter("exec.steps", now, float64(res.Measure.Steps))
	rec.Counter("exec.blocks", now, float64(res.Measure.Blocks))
	rec.Counter("exec.hops", now, float64(res.Measure.Hops))
	rec.Counter("exec.rearranged_blocks", now, float64(res.Measure.RearrangedBlocks))
	rec.Counter("exec.max_sharing", now, float64(res.MaxSharing))
	rec.Counter("exec.completion_us", now, p.Completion(res.Measure))
	if pg.Replayable() {
		// Bytes the replay's gathers physically moved.
		rec.Counter("exec.bytes_moved", now, float64(res.BytesMoved))
	}

	// Per-link gauges in the fabric's canonical link order (ascending
	// in dense id), so the stream stays deterministic.
	steps := float64(res.Measure.Steps)
	for _, l := range f.Links() {
		id := f.LinkID(l)
		if busySteps[id] == 0 {
			continue
		}
		rec.LinkGauge("link.util", f, l, float64(busySteps[id])/steps)
		rec.LinkGauge("link.contention", f, l, float64(maxShare[id]))
	}
}

// Package eventsim is an event-driven timing simulator for exchange
// schedules. The paper's cost model (and our lock-step executor)
// assumes globally synchronous steps: every step lasts as long as the
// largest message in the network. eventsim instead gives every node a
// local clock and lets it proceed as soon as its own dependencies are
// met — a send may start once the node finished its previous step's
// work, and a step completes at a node when both its send has drained
// and its receive has arrived.
//
// On square tori every node is symmetric and the asynchronous makespan
// equals the synchronous completion time, validating the model. On
// non-square tori the groups scattering along short dimensions finish
// their rings early, and eventsim measures how much of that slack
// barrier-free execution actually recovers given the receive
// dependencies (about 17% on a 16x8 torus under T3D-class parameters —
// a useful refinement of Section 5's accounting of idle steps).
package eventsim

import (
	"torusx/internal/costmodel"
	"torusx/internal/schedule"
	"torusx/internal/telemetry"
	"torusx/internal/topology"
)

// Result is the outcome of an asynchronous timing simulation.
type Result struct {
	// Makespan is the largest per-node finish time in microseconds.
	Makespan float64
	// PerNode is each node's finish time.
	PerNode []float64
	// SyncCompletion is the synchronous (paper-model) completion time
	// of the same schedule under the same parameters, for comparison.
	SyncCompletion float64
	// Slack is SyncCompletion − Makespan (>= 0): the time recovered by
	// removing the global barrier.
	Slack float64
}

// Options configures a simulation run.
type Options struct {
	// Skew injects per-node compute noise: before its send in global
	// step s, node i is delayed by Skew(i, s) microseconds — modelling
	// OS jitter, cache effects or imbalanced local work. Nil means no
	// noise.
	Skew func(node, step int) float64
	// Telemetry receives the simulation's counters (makespan, the
	// synchronous reference, recovered slack) and per-node finish-time
	// gauges. Nil disables emission and leaves the simulation itself
	// untouched.
	Telemetry *telemetry.Recorder
}

// Run simulates the schedule asynchronously under params.
// blocksPerNode is the data-array size a node rearranges at each phase
// boundary (N for a standard all-to-all).
func Run(t *topology.Torus, sc *schedule.Schedule, p costmodel.Params, blocksPerNode int) *Result {
	return RunOpt(t, sc, p, blocksPerNode, Options{})
}

// RunSkewed is Run with per-node compute noise injected; see
// Options.Skew. The synchronous reference (SyncCompletion) charges
// each step the worst skew plus the step time, which is how a
// barrier-synchronized machine actually behaves; Slack then measures
// how much of the noise amplification barrier-free execution absorbs.
func RunSkewed(t *topology.Torus, sc *schedule.Schedule, p costmodel.Params, blocksPerNode int, skew func(node, step int) float64) *Result {
	return RunOpt(t, sc, p, blocksPerNode, Options{Skew: skew})
}

// RunOpt simulates the schedule under params with explicit Options;
// Run and RunSkewed are thin wrappers over it.
func RunOpt(t *topology.Torus, sc *schedule.Schedule, p costmodel.Params, blocksPerNode int, opt Options) *Result {
	res := simulate(t, sc, p, blocksPerNode, opt.Skew)
	if opt.Telemetry.Enabled() {
		emitTelemetry(opt.Telemetry, t, res)
	}
	return res
}

// emitTelemetry publishes the simulation outcome: run-level counters
// plus one finish-time gauge per node (in node order, so the stream is
// deterministic).
func emitTelemetry(rec *telemetry.Recorder, t *topology.Torus, res *Result) {
	rec.Counter("eventsim.makespan_us", res.Makespan, res.Makespan)
	rec.Counter("eventsim.sync_completion_us", res.Makespan, res.SyncCompletion)
	rec.Counter("eventsim.slack_us", res.Makespan, res.Slack)
	for i, v := range res.PerNode {
		rec.NodeGauge("eventsim.node_finish_us", t, i, v)
	}
}

// simulate walks the schedule step by step, advancing every node's
// local clock.
func simulate(t *topology.Torus, sc *schedule.Schedule, p costmodel.Params, blocksPerNode int, skew func(node, step int) float64) *Result {
	n := t.Nodes()
	ready := make([]float64, n)

	sync := 0.0
	stepIdx := 0
	for pi, ph := range sc.Phases {
		if pi > 0 {
			// Phase boundary: every node rearranges its array before
			// its first send of the new phase. The phase's Rearrange
			// annotation, when present, declares the per-node block
			// count; blocksPerNode is the legacy fallback for
			// unannotated schedules.
			rb := blocksPerNode
			if ph.Rearrange > 0 {
				rb = ph.Rearrange
			}
			rearr := p.Rho * float64(rb*p.M)
			for i := range ready {
				ready[i] += rearr
			}
			sync += rearr
		}
		for _, st := range ph.Steps {
			if skew != nil {
				worst := 0.0
				for i := 0; i < n; i++ {
					d := skew(i, stepIdx)
					if d < 0 {
						d = 0
					}
					ready[i] += d
					if d > worst {
						worst = d
					}
				}
				sync += worst
			}
			stepIdx++
			// Synchronous reference: the step lasts as long as its
			// largest message.
			sync += p.StepTime(costmodel.Wormhole, st.MaxBlocks(), st.MaxHops())

			// Asynchronous: sends launch at the sender's ready time;
			// a node's next step starts after its send has drained and
			// its receive (if any) has arrived.
			sendDone := make(map[topology.NodeID]float64, len(st.Transfers))
			arrival := make(map[topology.NodeID]float64, len(st.Transfers))
			for _, tr := range st.Transfers {
				start := ready[tr.Src]
				drain := start + p.Ts + p.Tc*float64(tr.Blocks*p.M)
				sendDone[tr.Src] = drain
				arr := drain + p.Tl*float64(tr.TotalHops())
				if arr > arrival[tr.Dst] {
					arrival[tr.Dst] = arr
				}
			}
			for node, d := range sendDone {
				if d > ready[node] {
					ready[node] = d
				}
			}
			for node, a := range arrival {
				if a > ready[node] {
					ready[node] = a
				}
			}
		}
	}

	res := &Result{PerNode: ready, SyncCompletion: sync}
	for _, v := range ready {
		if v > res.Makespan {
			res.Makespan = v
		}
	}
	res.Slack = res.SyncCompletion - res.Makespan
	return res
}

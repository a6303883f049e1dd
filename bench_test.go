package torusx

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (see EXPERIMENTS.md for the index):
//
//	BenchmarkTable1_2D       Table 1, 2D column  (R×C tori)
//	BenchmarkTable1_ND       Table 1, nD column  (3D/4D tori)
//	BenchmarkTable2          Table 2              (2^d × 2^d comparison)
//	BenchmarkFigure1         Figure 1 walk-through schedule (12×12)
//	BenchmarkFigure2         Figure 2 pattern generation (12×12×12 plans)
//	BenchmarkFigure3         Figure 3 run (12×12×12 exchange)
//	BenchmarkCompletionSweep completion-time sweep vs baselines
//	BenchmarkVirtualNodes    Section 6 virtual-node extension
//	BenchmarkChannelBackend  concurrent SPMD execution
//	BenchmarkWormholeStep    flit-level execution of one step
//	BenchmarkAblationA1      direction-split ablation at flit level
//	BenchmarkLogTime         executable minimum-startup comparison ([9])
//	BenchmarkEventSim        barrier-free timing and slack
//	BenchmarkScheduleFlitLevel  whole schedule at flit level (2 VCs)
//	BenchmarkCollectives     broadcast/scatter/allgather/allreduce suite
//	BenchmarkPacketSwitchedStep  store-and-forward vs wormhole step
//
// Each benchmark measures the wall time of the simulated run and
// reports the paper's cost-model quantities as custom metrics
// (model_us is completion time under T3D-class parameters).

import (
	"fmt"
	"testing"

	"torusx/internal/baseline"
	"torusx/internal/costmodel"
	"torusx/internal/eventsim"
	"torusx/internal/exchange"
	"torusx/internal/exec"
	"torusx/internal/oracle"
	"torusx/internal/packetsim"
	"torusx/internal/plan"
	"torusx/internal/schedule"
	"torusx/internal/topology"
	"torusx/internal/wormhole"
)

var benchParams = costmodel.T3D(64)

func reportMeasure(b *testing.B, m costmodel.Measure) {
	b.ReportMetric(float64(m.Steps), "startups")
	b.ReportMetric(float64(m.Blocks), "blocks")
	b.ReportMetric(float64(m.Hops), "hops")
	b.ReportMetric(float64(m.RearrangedBlocks), "rearr_blocks")
	b.ReportMetric(benchParams.Completion(m), "model_us")
}

func runProposed(b *testing.B, dims ...int) costmodel.Measure {
	b.Helper()
	var m costmodel.Measure
	for i := 0; i < b.N; i++ {
		res, err := oracle.Run(topology.MustNew(dims...), oracle.Options{})
		if err != nil {
			b.Fatal(err)
		}
		m = costmodel.Measure{
			Steps:            res.Counters.Steps,
			Blocks:           res.Counters.SumMaxBlocks,
			Hops:             res.Counters.SumMaxHops,
			RearrangedBlocks: res.Counters.RearrangedBlocksMaxPerNode,
		}
	}
	return m
}

// BenchmarkTable1_2D regenerates the 2D column of Table 1: measured
// startup/transmission/rearrangement/propagation costs for R×C tori,
// which the associated tests assert equal the closed forms.
func BenchmarkTable1_2D(b *testing.B) {
	for _, dims := range [][]int{{8, 8}, {12, 12}, {16, 16}, {24, 24}, {32, 32}, {16, 8}, {24, 12}} {
		b.Run(topology.MustNew(dims...).String(), func(b *testing.B) {
			m := runProposed(b, dims...)
			reportMeasure(b, m)
			if m != costmodel.ProposedND(dims) {
				b.Fatalf("measured %+v != closed form %+v", m, costmodel.ProposedND(dims))
			}
		})
	}
}

// BenchmarkTable1_ND regenerates the nD column of Table 1.
func BenchmarkTable1_ND(b *testing.B) {
	for _, dims := range [][]int{{8, 8, 8}, {12, 8, 8}, {12, 8, 4}, {8, 8, 4, 4}, {8, 4, 4, 4}} {
		b.Run(topology.MustNew(dims...).String(), func(b *testing.B) {
			m := runProposed(b, dims...)
			reportMeasure(b, m)
			if m != costmodel.ProposedND(dims) {
				b.Fatalf("measured %+v != closed form %+v", m, costmodel.ProposedND(dims))
			}
		})
	}
}

// BenchmarkTable2 regenerates Table 2: the proposed algorithm is run
// on 2^d × 2^d tori; the [13] and [9] columns are the paper's closed
// forms, reported as metrics for side-by-side comparison.
func BenchmarkTable2(b *testing.B) {
	for d := 2; d <= 5; d++ {
		a := 1 << uint(d)
		b.Run(fmt.Sprintf("d=%d/%dx%d", d, a, a), func(b *testing.B) {
			m := runProposed(b, a, a)
			reportMeasure(b, m)
			b.ReportMetric(benchParams.Completion(costmodel.Tseng2D(d)), "tseng13_us")
			b.ReportMetric(benchParams.Completion(costmodel.SuhYal2D(d)), "suhyal9_us")
		})
	}
}

// BenchmarkFigure1 regenerates the Figure 1 walk-through: the full
// 12×12 schedule whose per-step block movements the figure depicts.
func BenchmarkFigure1(b *testing.B) {
	m := runProposed(b, 12, 12)
	reportMeasure(b, m)
}

// BenchmarkFigure2 regenerates the Figure 2 patterns: the per-node
// phase assignments of a 12×12×12 torus.
func BenchmarkFigure2(b *testing.B) {
	tor := topology.MustNew(12, 12, 12)
	coords := make([]topology.Coord, tor.Nodes())
	for i := range coords {
		coords[i] = tor.CoordOf(topology.NodeID(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range coords {
			_ = plan.GroupPhases(c)
			_ = plan.QuadOrder(c)
		}
	}
	b.ReportMetric(float64(tor.Nodes()), "nodes")
}

// BenchmarkFigure3 regenerates Figure 3: the full 12×12×12 exchange
// whose phase 1-3 slab transmissions the figure tabulates.
func BenchmarkFigure3(b *testing.B) {
	m := runProposed(b, 12, 12, 12)
	reportMeasure(b, m)
}

// BenchmarkCompletionSweep regenerates the completion-time comparison
// of Section 5 extended with the executable baselines: proposed vs
// ring vs direct on square 2D tori.
func BenchmarkCompletionSweep(b *testing.B) {
	for _, c := range []int{8, 16, 24, 32} {
		dims := []int{c, c}
		b.Run(fmt.Sprintf("proposed/%dx%d", c, c), func(b *testing.B) {
			m := runProposed(b, dims...)
			reportMeasure(b, m)
		})
		b.Run(fmt.Sprintf("ring/%dx%d", c, c), func(b *testing.B) {
			reportMeasure(b, runBaseline(b, baseline.EmitRing, dims))
		})
		b.Run(fmt.Sprintf("direct/%dx%d", c, c), func(b *testing.B) {
			reportMeasure(b, runBaseline(b, baseline.EmitDirect, dims))
		})
	}
}

// runBaseline builds, compiles and replays a baseline's schedule on
// dims once per iteration, outside the program cache, and returns the
// measure.
func runBaseline(b *testing.B, emit func(*topology.Torus, schedule.Sink) error, dims []int) costmodel.Measure {
	var m costmodel.Measure
	for i := 0; i < b.N; i++ {
		sc, err := schedule.Collect(topology.MustNew(dims...), emit)
		if err != nil {
			b.Fatal(err)
		}
		res, err := exec.Run(sc, exec.Options{})
		if err != nil {
			b.Fatal(err)
		}
		m = res.Measure
	}
	return m
}

// BenchmarkVirtualNodes regenerates the Section 6 extension: arbitrary
// torus shapes via virtual-node padding, with host-serialization
// overhead reported. The first iteration compiles the sparse program;
// the rest are warm program-cache hits and one replay each.
func BenchmarkVirtualNodes(b *testing.B) {
	for _, dims := range [][]int{{6, 5}, {10, 7}, {7, 6, 5}} {
		b.Run(topology.MustNew(dims...).String(), func(b *testing.B) {
			var rep *ArbitraryReport
			for i := 0; i < b.N; i++ {
				var err error
				if rep, err = AllToAllArbitrary(dims...); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rep.Measure.Steps), "padded_steps")
			b.ReportMetric(float64(rep.HostSerializedSteps), "host_steps")
			b.ReportMetric(float64(rep.MaxHostLoad), "max_host_load")
		})
	}
}

// BenchmarkChannelBackend measures the concurrent SPMD execution
// (goroutine per node, channel per consumption port).
func BenchmarkChannelBackend(b *testing.B) {
	for _, dims := range [][]int{{8, 8}, {12, 12}, {8, 8, 8}} {
		b.Run(topology.MustNew(dims...).String(), func(b *testing.B) {
			var msgs int
			for i := 0; i < b.N; i++ {
				res, err := oracle.RunSPMD(topology.MustNew(dims...))
				if err != nil {
					b.Fatal(err)
				}
				msgs = res.MessagesSent
			}
			b.ReportMetric(float64(msgs), "messages")
		})
	}
}

// BenchmarkWormholeStep measures flit-level execution of the first
// group step of a 16×16 exchange (the heaviest step of the schedule),
// confirming hops+flits completion.
func BenchmarkWormholeStep(b *testing.B) {
	res, err := oracle.Run(topology.MustNew(16, 16), oracle.Options{})
	if err != nil {
		b.Fatal(err)
	}
	step := &res.Schedule.Phases[0].Steps[0]
	const flitsPerBlock = 4
	b.ResetTimer()
	var cycles int
	for i := 0; i < b.N; i++ {
		msgs := wormhole.FromStep(res.Torus, step, flitsPerBlock)
		st, err := wormhole.Simulate(msgs, 10_000_000)
		if err != nil {
			b.Fatal(err)
		}
		cycles = st.Cycles
	}
	b.ReportMetric(float64(cycles), "cycles")
}

// BenchmarkNaiveSchedule measures the complete A1 ablation: the
// direction-split-free schedule executed end-to-end at flit level
// (with dateline VCs to avert its ring deadlock) against the proposed
// schedule.
func BenchmarkNaiveSchedule(b *testing.B) {
	tor := topology.MustNew(12, 12)
	prop, err := schedule.Collect(tor, exchange.EmitStructural)
	if err != nil {
		b.Fatal(err)
	}
	naive, err := oracle.GenerateNaive(tor)
	if err != nil {
		b.Fatal(err)
	}
	const fpb = 2
	b.Run("proposed", func(b *testing.B) {
		var cycles int
		for i := 0; i < b.N; i++ {
			cycles, _, err = wormhole.SimulateScheduleVC(tor, prop, fpb, 100_000_000)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(cycles), "cycles")
	})
	b.Run("naive", func(b *testing.B) {
		var cycles int
		for i := 0; i < b.N; i++ {
			cycles, _, err = wormhole.SimulateScheduleVC(tor, naive, fpb, 100_000_000)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(cycles), "cycles")
	})
}

// BenchmarkLogTime measures the executable minimum-startup baseline
// (the paper's future-work comparison against [9]).
func BenchmarkLogTime(b *testing.B) {
	for _, dims := range [][]int{{8, 8}, {16, 16}, {32, 32}} {
		b.Run(topology.MustNew(dims...).String(), func(b *testing.B) {
			reportMeasure(b, runBaseline(b, baseline.EmitLogTime, dims))
		})
	}
}

// BenchmarkEventSim measures the asynchronous (barrier-free) timing
// simulation and reports the slack over the synchronous model.
func BenchmarkEventSim(b *testing.B) {
	for _, dims := range [][]int{{12, 12}, {16, 8}} {
		res, err := oracle.Run(topology.MustNew(dims...), oracle.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(res.Torus.String(), func(b *testing.B) {
			var r *eventsim.Result
			for i := 0; i < b.N; i++ {
				r = eventsim.Run(res.Torus, res.Schedule, benchParams, res.Torus.Nodes())
			}
			b.ReportMetric(r.Makespan, "async_us")
			b.ReportMetric(r.SyncCompletion, "sync_us")
			b.ReportMetric(r.Slack, "slack_us")
		})
	}
}

// BenchmarkScheduleFlitLevel executes the complete 8x8 schedule at
// flit level with the two-VC dateline scheme, reporting total cycles
// (which must equal the sum of hops+flits per step — zero stalls).
func BenchmarkScheduleFlitLevel(b *testing.B) {
	res, err := oracle.Run(topology.MustNew(8, 8), oracle.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var cycles, stalls int
	for i := 0; i < b.N; i++ {
		cycles, stalls, err = wormhole.SimulateScheduleVC(res.Torus, res.Schedule, 4, 10_000_000)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cycles), "cycles")
	b.ReportMetric(float64(stalls), "stalls")
}

// BenchmarkCollectives measures the full collective suite on one
// torus, putting the all-to-all's cost in context (it dominates every
// sibling's volume, the paper's motivation).
func BenchmarkCollectives(b *testing.B) {
	tor := topology.MustNew(8, 8)
	n := tor.Nodes()
	contrib := make([][]uint64, n)
	for i := range contrib {
		contrib[i] = make([]uint64, n)
	}
	b.Run("broadcast", func(b *testing.B) {
		var m costmodel.Measure
		for i := 0; i < b.N; i++ {
			rep, err := Broadcast(tor, 0)
			if err != nil {
				b.Fatal(err)
			}
			m = rep.Measure
		}
		reportMeasure(b, m)
	})
	b.Run("scatter", func(b *testing.B) {
		var m costmodel.Measure
		for i := 0; i < b.N; i++ {
			rep, err := Scatter(tor, 0)
			if err != nil {
				b.Fatal(err)
			}
			m = rep.Measure
		}
		reportMeasure(b, m)
	})
	b.Run("allgather", func(b *testing.B) {
		var m costmodel.Measure
		for i := 0; i < b.N; i++ {
			rep, err := AllGather(tor)
			if err != nil {
				b.Fatal(err)
			}
			m = rep.Measure
		}
		reportMeasure(b, m)
	})
	b.Run("allreduce", func(b *testing.B) {
		var m costmodel.Measure
		for i := 0; i < b.N; i++ {
			_, rep, err := AllReduce(tor, contrib)
			if err != nil {
				b.Fatal(err)
			}
			m = rep.Measure
		}
		reportMeasure(b, m)
	})
}

// BenchmarkPacketSwitchedStep executes the heaviest step of an 8x8
// exchange under store-and-forward switching, next to its wormhole
// cycle count — the switching-mode comparison of the conclusions.
func BenchmarkPacketSwitchedStep(b *testing.B) {
	res, err := oracle.Run(topology.MustNew(8, 8), oracle.Options{})
	if err != nil {
		b.Fatal(err)
	}
	step := &res.Schedule.Phases[0].Steps[0]
	const fpb = 4
	wh, err := wormhole.Simulate(wormhole.FromStep(res.Torus, step, fpb), 1_000_000)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var cycles int
	for i := 0; i < b.N; i++ {
		st, err := packetsim.Simulate(packetsim.FromStep(res.Torus, step, fpb))
		if err != nil {
			b.Fatal(err)
		}
		cycles = st.Cycles
	}
	b.ReportMetric(float64(cycles), "saf_cycles")
	b.ReportMetric(float64(wh.Cycles), "wormhole_cycles")
}

// BenchmarkAblationA1 measures the direction-split ablation at flit
// level: the proposed stride-4 ring tiling vs four adjacent senders
// contending for the same links.
func BenchmarkAblationA1(b *testing.B) {
	tor := topology.MustNew(16)
	const flits = 1 + 24*4
	mk := func(starts []int) []wormhole.Message {
		var msgs []wormhole.Message
		for i, s := range starts {
			msgs = append(msgs, wormhole.Message{
				ID: i, Path: tor.PathLinks(topology.Coord{s}, 0, topology.Pos, 4), Flits: flits,
			})
		}
		return msgs
	}
	b.Run("split", func(b *testing.B) {
		var cycles int
		for i := 0; i < b.N; i++ {
			st, err := wormhole.Simulate(mk([]int{0, 4, 8, 12}), 1_000_000)
			if err != nil {
				b.Fatal(err)
			}
			cycles = st.Cycles
		}
		b.ReportMetric(float64(cycles), "cycles")
	})
	b.Run("naive", func(b *testing.B) {
		var cycles int
		for i := 0; i < b.N; i++ {
			st, err := wormhole.Simulate(mk([]int{0, 1, 2, 3}), 1_000_000)
			if err != nil {
				b.Fatal(err)
			}
			cycles = st.Cycles
		}
		b.ReportMetric(float64(cycles), "cycles")
	})
}

// Command aapetab regenerates the paper's evaluation artifacts:
//
//	aapetab -table 1          # Table 1: cost summary, measured vs closed form
//	aapetab -table 2          # Table 2: [13] vs [9] vs proposed on 2^d x 2^d tori
//	aapetab -table sweep      # completion-time sweep over torus sizes
//	aapetab -table ablation   # direction-split (A1) and rearrangement (A2) ablations
//	aapetab -table crossover  # startup-cost crossover vs minimum-startup schemes
//	aapetab -table switching  # wormhole vs store-and-forward comparison
//	aapetab -table replay -alg direct   # any algorithm through the shared
//	                                    # executor and all timing backends
//	aapetab -table replay -fabric dragonfly -alg dimexchange   # dragonfly sweep
//	aapetab -table replay -alg direct -traffic perm:seed=1   # sparse replay
//	aapetab -table planner              # cost-model planner vs every sparse
//	                                    # candidate, canned generator grid
//	aapetab -table planner -traffic hotspot:k=4,seed=2   # one spec
//
// Machine parameters can be overridden with -m, -ts, -tc, -tl, -rho.
package main

import (
	"flag"
	"fmt"
	"strings"

	"torusx"
	"torusx/internal/algorithm"
	"torusx/internal/baseline"
	"torusx/internal/cli"
	"torusx/internal/costmodel"
	"torusx/internal/eventsim"
	"torusx/internal/exec"
	"torusx/internal/obs"
	"torusx/internal/oracle"
	"torusx/internal/packetsim"
	"torusx/internal/schedule"
	"torusx/internal/stats"
	"torusx/internal/topology"
	"torusx/internal/traffic"
	"torusx/internal/wormhole"
)

func main() {
	var (
		tableFlag    = flag.String("table", "1", "artifact: 1, 2, sweep, ablation, crossover, switching, replay, planner")
		algFlag      = flag.String("alg", "proposed", "algorithm for -table replay: "+strings.Join(algorithm.Names(), ", "))
		fabricFlag   = flag.String("fabric", "torus", "fabric for -table replay: torus or dragonfly")
		mFlag        = flag.Int("m", 64, "block size in bytes")
		tsFlag       = flag.Float64("ts", 25, "startup time per message (us)")
		tcFlag       = flag.Float64("tc", 0.01, "transmission time per byte (us)")
		tlFlag       = flag.Float64("tl", 0.05, "propagation delay per hop (us)")
		rhoFlag      = flag.Float64("rho", 0.005, "rearrangement time per byte (us)")
		csvFlag      = flag.Bool("csv", false, "emit comma-separated values instead of an aligned table")
		parallelFlag = flag.Bool("parallel", true, "run the -table replay executor on its parallel replay path (bit-identical to serial; the timing simulators are serial)")
		workersFlag  = flag.Int("workers", 0, "parallel replay worker count (0 = GOMAXPROCS)")
	)
	trafficFlag := cli.RegisterTraffic(flag.CommandLine)
	tel := cli.RegisterTelemetry(flag.CommandLine)
	cacheDirFlag := cli.RegisterCacheDir(flag.CommandLine)
	flag.Parse()
	if err := algorithm.SetCacheDir(*cacheDirFlag); err != nil {
		cli.Fatalf("aapetab: %v", err)
	}
	if tel.Enabled() && *tableFlag != "replay" {
		cli.Fatalf("aapetab: -telemetry/-trace-out/-heatmap apply to -table replay only")
	}
	if *fabricFlag != "torus" && *tableFlag != "replay" && *tableFlag != "planner" {
		cli.Fatalf("aapetab: -fabric applies to -table replay and -table planner only")
	}
	if *trafficFlag != "" && *tableFlag != "replay" && *tableFlag != "planner" {
		cli.Fatalf("aapetab: -traffic applies to -table replay and -table planner only")
	}
	p := costmodel.Params{Ts: *tsFlag, Tc: *tcFlag, Tl: *tlFlag, Rho: *rhoFlag, M: *mFlag}
	render = func(t *stats.Table) string {
		if *csvFlag {
			return t.CSV()
		}
		return t.String()
	}

	switch *tableFlag {
	case "1":
		fmt.Print(Table1(p))
	case "2":
		fmt.Print(Table2(p))
	case "sweep":
		fmt.Print(Sweep(p))
	case "ablation":
		fmt.Print(Ablation(p))
	case "crossover":
		fmt.Print(Crossover(p))
	case "switching":
		fmt.Print(SwitchingTable(p))
	case "replay":
		out, err := Replay(p, *algFlag, ReplayOpt{Serial: !*parallelFlag, Workers: *workersFlag, Fabric: *fabricFlag, Traffic: *trafficFlag, Telemetry: tel})
		if err != nil {
			cli.Fatalf("aapetab: %v", err)
		}
		fmt.Print(out)
	case "planner":
		out, err := PlannerTable(p, *fabricFlag, *trafficFlag, tel)
		if err != nil {
			cli.Fatalf("aapetab: %v", err)
		}
		fmt.Print(out)
	default:
		cli.Fatalf("aapetab: unknown table %q", *tableFlag)
	}
}

// render converts a table to its output form; main swaps it for CSV
// when -csv is set, and tests use the aligned default.
var render = func(t *stats.Table) string { return t.String() }

// table1Shapes is the shape sweep used for the Table 1 reproduction.
var table1Shapes = [][]int{
	{8, 8}, {12, 8}, {12, 12}, {16, 16}, {20, 20},
	{8, 8, 8}, {12, 12, 12}, {12, 8, 4},
	{8, 8, 4, 4},
}

// measureCache memoizes simulation runs: the simulator is
// deterministic, so each shape needs to run once per process.
var measureCache = map[string]costmodel.Measure{}

// measure runs the proposed algorithm on the paper-following block
// simulator and returns its counters as a cost-model measure. Table 1's
// measured column comes from that simulator, not from the compiled
// program production replays, so the column is an independent check of
// the closed forms.
func measure(dims []int) (costmodel.Measure, error) {
	key := fmt.Sprint(dims)
	if m, ok := measureCache[key]; ok {
		return m, nil
	}
	res, err := oracle.Run(topology.MustNew(dims...), oracle.Options{})
	if err != nil {
		return costmodel.Measure{}, err
	}
	m := costmodel.Measure{
		Steps:            res.Counters.Steps,
		Blocks:           res.Counters.SumMaxBlocks,
		Hops:             res.Counters.SumMaxHops,
		RearrangedBlocks: res.Counters.RearrangedBlocksMaxPerNode,
	}
	measureCache[key] = m
	return m, nil
}

// Table1 renders the Table 1 reproduction: for each torus shape, the
// measured startup/transmission/rearrangement/propagation costs of the
// simulated run next to the paper's closed forms.
func Table1(p costmodel.Params) string {
	tb := stats.NewTable(
		fmt.Sprintf("Table 1 - proposed algorithm, measured (sim) vs closed form (paper); %s", p),
		"network", "startups", "paper", "blocks", "paper", "rearr", "paper", "hops", "paper", "completion")
	for _, dims := range table1Shapes {
		m, err := measure(dims)
		if err != nil {
			cli.Fatalf("aapetab: %v", err)
		}
		cf := costmodel.ProposedND(dims)
		tb.AddRowf(topology.MustNew(dims...).String(),
			m.Steps, cf.Steps, m.Blocks, cf.Blocks,
			m.RearrangedBlocks, cf.RearrangedBlocks, m.Hops, cf.Hops,
			stats.FmtUS(p.Completion(m)))
	}
	return render(tb)
}

// Table2 renders the Table 2 reproduction: completion-time comparison
// of [13], [9] and the proposed algorithm on 2^d x 2^d tori. The
// proposed column is additionally measured from simulation.
func Table2(p costmodel.Params) string {
	tb := stats.NewTable(
		fmt.Sprintf("Table 2 - 2^d x 2^d tori: Tseng et al. [13] vs Suh-Yalamanchili [9] vs proposed; %s", p),
		"d", "network",
		"T[13]", "T[9]", "T[prop]", "T[prop] measured",
		"startups 13/9/prop", "rearr-blocks 13/prop")
	for d := 2; d <= 7; d++ {
		a := 1 << uint(d)
		ts := costmodel.Tseng2D(d)
		sy := costmodel.SuhYal2D(d)
		pr := costmodel.ProposedPow2(d)
		row := []interface{}{
			d, fmt.Sprintf("%dx%d", a, a),
			stats.FmtUS(p.Completion(ts)), stats.FmtUS(p.Completion(sy)), stats.FmtUS(p.Completion(pr)),
		}
		if a <= 32 {
			m, err := measure([]int{a, a})
			if err != nil {
				cli.Fatalf("aapetab: %v", err)
			}
			row = append(row, stats.FmtUS(p.Completion(m)))
		} else {
			row = append(row, "(skipped)")
		}
		row = append(row,
			fmt.Sprintf("%d/%d/%d", ts.Steps, sy.Steps, pr.Steps),
			fmt.Sprintf("%d/%d", ts.RearrangedBlocks, pr.RearrangedBlocks))
		tb.AddRowf(row...)
	}
	return render(tb)
}

// compare returns alg's verified measure on dims from its registry
// program, served from the program cache (torusx.Compare).
func compare(alg torusx.Algorithm, dims []int) costmodel.Measure {
	m, err := torusx.Compare(alg, dims...)
	if err != nil {
		cli.Fatalf("aapetab: %v", err)
	}
	return m
}

// Sweep renders completion time against torus size for the proposed
// algorithm and the executable baselines.
func Sweep(p costmodel.Params) string {
	tb := stats.NewTable(
		fmt.Sprintf("Completion-time sweep, square 2D tori; %s", p),
		"network", "proposed", "ring", "direct", "factored", "tseng[13]", "suhyal[9]", "ring/prop", "direct/prop")
	for _, c := range []int{8, 12, 16, 20, 24, 32} {
		dims := []int{c, c}
		prop, err := measure(dims)
		if err != nil {
			cli.Fatalf("aapetab: %v", err)
		}
		ring := compare(torusx.Ring, dims)
		dir := compare(torusx.Direct, dims)
		row := []interface{}{
			fmt.Sprintf("%dx%d", c, c),
			stats.FmtUS(p.Completion(prop)),
			stats.FmtUS(p.Completion(ring)),
			stats.FmtUS(p.Completion(dir)),
			stats.FmtUS(p.Completion(compare(torusx.Factored, dims))),
		}
		if c&(c-1) == 0 { // power of two: Table 2 models apply
			d := 0
			for 1<<uint(d) < c {
				d++
			}
			row = append(row,
				stats.FmtUS(p.Completion(costmodel.Tseng2D(d))),
				stats.FmtUS(p.Completion(costmodel.SuhYal2D(d))))
		} else {
			row = append(row, "-", "-")
		}
		row = append(row,
			stats.Ratio(p.Completion(ring), p.Completion(prop)),
			stats.Ratio(p.Completion(dir), p.Completion(prop)))
		tb.AddRowf(row...)
	}
	return render(tb)
}

// Ablation renders the design-choice ablations: A1 (what the
// direction split buys) and A2 (phase-boundary vs per-step
// rearrangement).
func Ablation(p costmodel.Params) string {
	a1 := stats.NewTable(
		fmt.Sprintf("A1 - (r+c) mod 4 direction split vs serialized groups; %s", p),
		"network", "proposed", "serialized", "penalty")
	for _, c := range []int{8, 16, 32, 64} {
		dims := []int{c, c}
		prop := costmodel.ProposedND(dims)
		ser := baseline.SerializedGroups(dims)
		a1.AddRowf(fmt.Sprintf("%dx%d", c, c),
			stats.FmtUS(p.Completion(prop)), stats.FmtUS(p.Completion(ser)),
			stats.Ratio(p.Completion(ser), p.Completion(prop)))
	}
	a2 := stats.NewTable(
		"A2 - rearrangement steps: proposed (phase boundaries) vs [13]-style (per step)",
		"d", "network", "proposed", "tseng[13]")
	for d := 2; d <= 7; d++ {
		a := 1 << uint(d)
		a2.AddRowf(d, fmt.Sprintf("%dx%d", a, a), 3, (1<<uint(d-1))+1)
	}
	return render(a1) + "\n" + render(a2)
}

// Crossover renders the startup-cost crossover analysis the paper's
// conclusion calls for: for each 2^d x 2^d torus, the startup time ts*
// above which the O(d)-startup schemes ([9] analytic, and the
// executable LogTime baseline) overtake the proposed algorithm. Below
// ts* the proposed algorithm wins despite its 2^{d-1}+2 startups.
func Crossover(p costmodel.Params) string {
	tb := stats.NewTable(
		fmt.Sprintf("Startup crossover vs minimum-startup schemes; tc/tl/rho as given, m=%dB", p.M),
		"d", "network", "ts* vs [9]", "ts* vs logtime", "proposed wins at ts=25us?")
	for d := 3; d <= 7; d++ {
		a := 1 << uint(d)
		prop := costmodel.ProposedPow2(d)
		sy := costmodel.SuhYal2D(d)
		row := []interface{}{d, fmt.Sprintf("%dx%d", a, a), crossTs(p, prop, sy)}
		if a <= 32 {
			row = append(row, crossTs(p, prop, compare(torusx.LogTime, []int{a, a})))
		} else {
			row = append(row, "(skipped)")
		}
		t3d := p
		t3d.Ts = 25
		verdict := "yes"
		if t3d.Completion(prop) >= t3d.Completion(sy) {
			verdict = "no"
		}
		row = append(row, verdict)
		tb.AddRowf(row...)
	}
	return render(tb)
}

// crossTs solves ts*: the startup time equalizing the completion of a
// (the higher-startup measure) and b. Returns "-" when a does not have
// more startups or never loses.
func crossTs(p costmodel.Params, a, b costmodel.Measure) string {
	if a.Steps <= b.Steps {
		return "-"
	}
	// ts*(Sa - Sb) = (other_b - other_a)
	zero := p
	zero.Ts = 0
	diff := zero.Completion(b) - zero.Completion(a)
	if diff <= 0 {
		return "never (dominated)"
	}
	return stats.FmtUS(diff / float64(a.Steps-b.Steps))
}

// replayShapes is the torus shape sweep of the replay table;
// replayDragonflyShapes is the -fabric dragonfly counterpart.
var replayShapes = [][]int{{8, 8}, {12, 12}, {16, 16}}

var replayDragonflyShapes = [][2]int{{2, 3}, {2, 4}, {3, 4}}

// ReplayOpt configures Replay. Serial and Workers choose the
// executor's replay path (Serial forces the single-goroutine replay;
// otherwise it fans out across Workers goroutines, 0 = GOMAXPROCS);
// both paths produce bit-identical tables. The timing simulators
// always run serially.
// Fabric selects the shape sweep ("" or "torus", or "dragonfly"); the
// flit-level and event backends are torus simulators, so dragonfly
// rows report the executor's measures with "-" in those columns.
// Telemetry, when enabled, attaches a per-shape recorder (label
// "alg@shape") to the executor and the event simulator, switches the
// flit simulators to their link-tracking entry points, and appends the
// requested trace/heatmap outputs (heatmap laid out on the first
// shape) after the table.
// Traffic, when non-empty, replays the sparse specialization of each
// shape instead of the dense all-to-all: the spec is parsed per shape
// (internal/traffic.ParseSpec) and the schedule pruned — or natively
// built — for exactly that matrix, with delivery verified against it.
type ReplayOpt struct {
	Serial    bool
	Workers   int
	Fabric    string
	Traffic   string
	Telemetry *cli.Telemetry
}

// Replay lowers the chosen algorithm to the schedule IR on each shape,
// runs it through the shared executor (validation, replay when the
// schedule carries payloads, uniform measure), and times the same
// schedule under every backend: the synchronous cost model, the
// asynchronous event simulator, and the flit-level wormhole and
// store-and-forward simulators (4 flits per block, per-step cycles
// summed over the whole schedule).
func Replay(p costmodel.Params, algName string, opt ReplayOpt) (string, error) {
	b, err := algorithm.For(algName)
	if err != nil {
		return "", err
	}
	const flitsPerBlock = 4
	title := fmt.Sprintf("Replay of %q through the shared executor; %s", algName, p)
	if opt.Traffic != "" {
		title = fmt.Sprintf("Replay of %q under traffic %q through the shared executor; %s", algName, opt.Traffic, p)
	}
	tb := stats.NewTable(title,
		"network", "steps", "blocks", "hops", "rearr", "replayed",
		"model", "eventsim", "WH cycles", "SAF cycles")
	var fabrics []topology.Fabric
	switch opt.Fabric {
	case "", "torus":
		for _, dims := range replayShapes {
			fabrics = append(fabrics, topology.MustNew(dims...))
		}
	case "dragonfly", "d3":
		for _, sh := range replayDragonflyShapes {
			fabrics = append(fabrics, topology.MustNewDragonfly(sh[0], sh[1]))
		}
	default:
		return "", fmt.Errorf("unknown fabric %q (have torus, dragonfly)", opt.Fabric)
	}
	var firstFab topology.Fabric
	for _, fab := range fabrics {
		tor, isTorus := fab.(*topology.Torus)
		// One wall-clock request per table cell: build (cache lookup,
		// plan, prune, compile), arena acquire and replay all record
		// stages on it.
		label := algName + "@" + fab.String()
		if opt.Traffic != "" {
			label = algName + "+" + opt.Traffic + "@" + fab.String()
		}
		req := opt.Telemetry.StartRequest(label)
		bopt := exec.Options{Request: req}
		var pg *exec.Program
		var berr error
		if opt.Traffic != "" {
			var m traffic.Matrix
			if m, berr = cli.ResolveTraffic(opt.Traffic, fab); berr == nil {
				pg, berr = algorithm.BuildSparseProgram(b, fab, m, bopt)
			}
		} else {
			pg, berr = algorithm.BuildProgram(b, fab, bopt)
		}
		if berr != nil {
			tb.AddRowf(fab.String(), "-", "-", "-", "-", "-", "-", "-", "-",
				fmt.Sprintf("(%v)", berr))
			continue
		}
		sc, err := pg.Schedule()
		if err != nil {
			return "", err
		}
		if firstFab == nil {
			firstFab = fab
		}
		rec, err := opt.Telemetry.Labeled(p, algName+"@"+fab.String())
		if err != nil {
			return "", err
		}
		asp := req.Stage(obs.StageArenaAcquire)
		arena := pg.AcquireArena()
		asp.End()
		res, err := pg.RunArena(arena, exec.Options{Serial: opt.Serial, Workers: opt.Workers, Telemetry: rec, Request: req})
		if err != nil {
			return "", err
		}
		pg.ReleaseArena(arena)
		if !isTorus {
			// The event and flit-level backends are torus simulators;
			// non-torus rows carry the executor's verified measures only.
			replayed := "structural"
			if res.Replayed {
				replayed = "verified"
			}
			m := res.Measure
			tb.AddRowf(fab.String(), m.Steps, m.Blocks, m.Hops, m.RearrangedBlocks,
				replayed, stats.FmtUS(p.Completion(m)), "-", "-", "-")
			continue
		}
		ev := eventsim.RunOpt(tor, sc, p, tor.Nodes(), eventsim.Options{Telemetry: rec})
		// A completing step on these shapes needs < 20k cycles, and a
		// deadlocked one stops in the first cycle no flit moves; the cap
		// is a backstop.
		const cycleCap = 1 << 20
		track := rec.Enabled()
		whTotal := wormhole.Stats{}
		safTotal := packetsim.Stats{}
		if track {
			whTotal.LinkBusy = make(map[topology.Link]int)
			safTotal.LinkBusy = make(map[topology.Link]int)
		}
		whCycles, safCycles := 0, 0
		wh := ""
		var simErr error
		sc.EachStep(func(_ *schedule.Phase, _ int, st *schedule.Step) {
			if simErr != nil || len(st.Transfers) == 0 {
				return
			}
			if wh == "" {
				wmsgs := wormhole.FromStep(tor, st, flitsPerBlock)
				simulate := wormhole.Simulate
				if track {
					simulate = wormhole.SimulateTracked
				}
				wst, err := simulate(wmsgs, cycleCap)
				if err != nil {
					// Simultaneous wrap-around worms (e.g. Direct's
					// id-shifts) cyclically block head flits: a genuine
					// wormhole routing deadlock without virtual
					// channels. Report it instead of aborting the table.
					wh = "deadlock"
				} else {
					whCycles += wst.Cycles
					whTotal.Cycles += wst.Cycles
					whTotal.HeaderStalls += wst.HeaderStalls
					for l, c := range wst.LinkBusy {
						whTotal.LinkBusy[l] += c
					}
				}
			}
			pmsgs := packetsim.FromStep(tor, st, flitsPerBlock)
			simulate := packetsim.Simulate
			if track {
				simulate = packetsim.SimulateTracked
			}
			pst, err := simulate(pmsgs)
			if err != nil {
				simErr = err
				return
			}
			safCycles += pst.Cycles
			safTotal.Cycles += pst.Cycles
			safTotal.QueueWaits += pst.QueueWaits
			for l, c := range pst.LinkBusy {
				safTotal.LinkBusy[l] += c
			}
		})
		if simErr != nil {
			return "", simErr
		}
		if track {
			// Whole-schedule flit-level aggregates: per-link busy cycles
			// summed over steps, utilization relative to the summed
			// critical path.
			if wh != "deadlock" {
				wormhole.EmitTelemetry(rec, tor, "wormhole", whTotal)
			}
			packetsim.EmitTelemetry(rec, tor, "saf", safTotal)
		}
		if wh == "" {
			wh = fmt.Sprint(whCycles)
		}
		replayed := "structural"
		if res.Replayed {
			replayed = "verified"
		}
		m := res.Measure
		tb.AddRowf(tor.String(), m.Steps, m.Blocks, m.Hops, m.RearrangedBlocks,
			replayed, stats.FmtUS(p.Completion(m)), stats.FmtUS(ev.Makespan),
			wh, safCycles)
	}
	out := strings.Builder{}
	out.WriteString(render(tb))
	// Finish tolerates a nil fabric (every row excluded): the heatmap is
	// skipped but requests still close and -metrics-out still writes.
	label := ""
	if firstFab != nil {
		label = algName + "@" + firstFab.String()
	}
	if err := opt.Telemetry.Finish(&out, firstFab, label); err != nil {
		return "", err
	}
	return out.String(), nil
}

// plannerShapes is the (small, replayable) shape grid of the planner
// table, per fabric kind.
var plannerShapes = map[string][]func() topology.Fabric{
	"torus": {
		func() topology.Fabric { return topology.MustNew(8, 8) },
		func() topology.Fabric { return topology.MustNew(4, 4, 4) },
	},
	"dragonfly": {
		func() topology.Fabric { return topology.MustNewDragonfly(2, 4) },
		func() topology.Fabric { return topology.MustNewDragonfly(3, 4) },
	},
}

// PlannerTable renders the cost-model planner against every sparse
// candidate: for each (shape, traffic generator) cell, the planner's
// pick with its modelled completion next to the best and worst
// candidate — the spread the planner saves over a fixed choice. A
// non-empty spec replaces the canned generator grid with one matrix.
// With -metrics-out, each cell's planner sweep runs under its own
// wall-clock request ("auto+spec@shape"), so the registry's latency
// histograms separate plan-scoring from compile time.
func PlannerTable(p costmodel.Params, fabric, spec string, tel *cli.Telemetry) (string, error) {
	kind := fabric
	if kind == "" {
		kind = "torus"
	}
	if kind == "d3" {
		kind = "dragonfly"
	}
	makers, ok := plannerShapes[kind]
	if !ok {
		return "", fmt.Errorf("unknown fabric %q (have torus, dragonfly)", fabric)
	}
	specs := traffic.CannedSpecs()
	if spec != "" {
		specs = []string{spec}
	}
	tb := stats.NewTable(
		fmt.Sprintf("Cost-model planner vs every sparse candidate; %s", p),
		"network", "traffic", "pick", "pick cost", "best", "worst", "worst alg", "spread")
	for _, mk := range makers {
		fab := mk()
		for _, s := range specs {
			m, err := cli.ResolveTraffic(s, fab)
			if err != nil {
				return "", err
			}
			req := tel.StartRequest("auto+" + s + "@" + fab.String())
			plan, err := algorithm.PlanSparse(fab, m, p, exec.Options{Request: req})
			if err != nil {
				return "", err
			}
			best := plan.Scores[0]
			worst := best
			for _, sc := range plan.Scores {
				if sc.Err == nil && sc.Completion > worst.Completion {
					worst = sc
				}
			}
			tb.AddRowf(fab.String(), s, plan.Winner,
				stats.FmtUS(best.Completion), stats.FmtUS(best.Completion),
				stats.FmtUS(worst.Completion), worst.Name,
				stats.Ratio(worst.Completion, best.Completion))
		}
	}
	out := strings.Builder{}
	out.WriteString(render(tb))
	if err := tel.Finish(&out, nil, ""); err != nil {
		return "", err
	}
	return out.String(), nil
}

// SwitchingTable renders the proposed-vs-ring comparison under
// wormhole and store-and-forward switching, showing why the stride-4
// combining design targets wormhole-class networks (its 4-hop steps
// retransmit 4x under store-and-forward).
func SwitchingTable(p costmodel.Params) string {
	tb := stats.NewTable(
		fmt.Sprintf("Switching modes, proposed vs ring; %s", p),
		"network", "prop WH", "ring WH", "prop SAF", "ring SAF", "WH ratio", "SAF ratio")
	for _, c := range []int{8, 16, 32} {
		dims := []int{c, c}
		cf := costmodel.ProposedND(dims)
		propWH := p.CompletionSwitched(costmodel.Wormhole, costmodel.ProposedSteps(dims), cf.RearrangedBlocks)
		propSF := p.CompletionSwitched(costmodel.StoreAndForward, costmodel.ProposedSteps(dims), cf.RearrangedBlocks)
		ringWH := p.CompletionSwitched(costmodel.Wormhole, costmodel.RingSteps(dims), 0)
		ringSF := p.CompletionSwitched(costmodel.StoreAndForward, costmodel.RingSteps(dims), 0)
		tb.AddRowf(fmt.Sprintf("%dx%d", c, c),
			stats.FmtUS(propWH), stats.FmtUS(ringWH),
			stats.FmtUS(propSF), stats.FmtUS(ringSF),
			stats.Ratio(ringWH, propWH), stats.Ratio(ringSF, propSF))
	}
	return render(tb)
}

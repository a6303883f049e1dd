// Command aape runs an all-to-all personalized exchange on a simulated
// torus and reports verified, measured costs.
//
// Usage:
//
//	aape -dims 12x12 [-fabric torus|dragonfly] [-alg proposed|direct|ring|factored|logtime|virtual] [-m 64] [-ts 25 -tc 0.01 -tl 0.05 -rho 0.005] [-parallel=true] [-workers N] [-telemetry ev.jsonl] [-trace-out t.json] [-heatmap]
//
// Examples:
//
//	aape -dims 12x12                 # proposed algorithm, lock-step, checked
//	aape -dims 6x5 -alg virtual      # non-multiple-of-four torus
//	aape -dims 8x8 -alg direct       # non-combining baseline
//	aape -dims 16x16 -alg logtime    # minimum-startup baseline
//	aape -dims 32x32 -alg proposed-sim -parallel=false  # serial reference executor
//	aape -fabric dragonfly -dims 2x4 -alg direct       # D3(2,4) swapped dragonfly
//	aape -fabric dragonfly -dims 2x4 -alg dimexchange  # port-ordered dragonfly exchange
//
// Executor-backed algorithms (direct, ring, factored, logtime,
// proposed-sim, broadcast, allgather) run through the shared executor,
// which by default fans out across GOMAXPROCS workers; -parallel=false
// selects the serial reference path, bit-identical by construction.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"torusx"
	"torusx/internal/algorithm"
	"torusx/internal/cli"
	"torusx/internal/exec"
	"torusx/internal/obs"
	"torusx/internal/topology"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		cli.Fatalf("aape: %v", err)
	}
}

// run parses args and writes the report to w; extracted from main for
// testing.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("aape", flag.ContinueOnError)
	var (
		fabricFlag   = fs.String("fabric", "torus", "fabric kind: torus or dragonfly (D3(K,M), shape KxM)")
		dimsFlag     = fs.String("dims", "12x12", "fabric shape: torus dimensions like 12x8x4, or KxM for -fabric dragonfly")
		algFlag      = fs.String("alg", "proposed", "algorithm: proposed, direct, ring, factored, logtime, virtual, auto (cost-model planner, needs or implies -traffic), or any registered name ("+strings.Join(algorithm.Names(), ", ")+")")
		mFlag        = fs.Int("m", 64, "block size in bytes")
		tsFlag       = fs.Float64("ts", 25, "startup time per message (us)")
		tcFlag       = fs.Float64("tc", 0.01, "transmission time per byte (us)")
		tlFlag       = fs.Float64("tl", 0.05, "propagation delay per hop (us)")
		rhoFlag      = fs.Float64("rho", 0.005, "rearrangement time per byte (us)")
		parallelFlag = fs.Bool("parallel", true, "fan the executor out across GOMAXPROCS workers (results are bit-identical to -parallel=false)")
		workersFlag  = fs.Int("workers", 0, "parallel executor worker count (0 = GOMAXPROCS)")
	)
	trafficFlag := cli.RegisterTraffic(fs)
	tel := cli.RegisterTelemetry(fs)
	cacheDirFlag := cli.RegisterCacheDir(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := algorithm.SetCacheDir(*cacheDirFlag); err != nil {
		return err
	}
	execOpt := exec.Options{Serial: !*parallelFlag, Workers: *workersFlag}

	fab, err := cli.ParseFabric(*fabricFlag, *dimsFlag)
	if err != nil {
		return err
	}
	params := torusx.CostParams{Ts: *tsFlag, Tc: *tcFlag, Tl: *tlFlag, Rho: *rhoFlag, M: *mFlag}

	alg := *algFlag
	if *trafficFlag != "" || alg == "auto" {
		// Sparse-traffic path: a declared matrix rides a pruned (or
		// natively sparse) schedule, and -alg auto lets the cost-model
		// planner pick the cheapest algorithm for the matrix.
		switch alg {
		case "proposed", "virtual":
			return fmt.Errorf("-traffic needs a sparse-capable executor algorithm (auto, %s); %q runs only the full exchange",
				strings.Join(algorithm.SparseSupporting(fab), ", "), alg)
		}
		return runSparse(w, tel, alg, fab, *trafficFlag, params, execOpt)
	}
	if _, isTorus := fab.(*topology.Torus); !isTorus {
		// Non-torus fabrics resolve through the registry only; the
		// library paths below are torus algorithms.
		switch alg {
		case "proposed", "virtual":
			return fmt.Errorf("algorithm %q is torus-only; on %s use one of %s",
				alg, fab, strings.Join(algorithm.Supporting(fab), ", "))
		}
		return runExecutor(w, tel, alg, fab, params, execOpt)
	}
	dims, err := cli.ParseDims(*dimsFlag)
	if err != nil {
		return err
	}
	if tel.Enabled() {
		switch alg {
		case "proposed":
			// torusx.AllToAll behind the plain "proposed" path replays
			// its program without telemetry; the registry's structural
			// builder emits the same schedule through the instrumented
			// executor.
			return runExecutor(w, tel, alg, fab, params, execOpt)
		case "virtual":
			return fmt.Errorf("telemetry is only available for executor-backed algorithms, not %q", alg)
		}
	}

	switch alg {
	case "proposed":
		tor, err := torusx.NewTorus(dims...)
		if err != nil {
			return err
		}
		rep, err := torusx.AllToAll(tor)
		if err != nil {
			return err
		}
		printReport(w, "proposed (lock-step, contention-checked, delivery-verified)", rep.Measure, params)
		fmt.Fprintf(w, "phases: %d  non-contiguous sends: %d\n", rep.Phases, rep.NonContiguousSends)

	case "virtual":
		rep, err := torusx.AllToAllArbitrary(dims...)
		if err != nil {
			return err
		}
		printReport(w, "proposed via virtual nodes (delivery-verified)", rep.Measure, params)
		fmt.Fprintf(w, "real nodes: %d  padded shape: %v\n", rep.RealNodes, rep.PaddedDims)
		fmt.Fprintf(w, "host-serialized steps: %d  max host load: %d\n",
			rep.HostSerializedSteps, rep.MaxHostLoad)

	default:
		// Everything else resolves through the algorithm registry and
		// runs through the shared executor, parallel unless
		// -parallel=false.
		if _, err := algorithm.For(alg); err != nil {
			return fmt.Errorf("unknown algorithm %q (expected virtual or one of %s)",
				alg, strings.Join(algorithm.Names(), ", "))
		}
		return runExecutor(w, tel, alg, fab, params, execOpt)
	}
	// The library paths above do not report to the telemetry session;
	// still honor -metrics-out (the registry carries whatever the
	// process did).
	return tel.Finish(w, fab, "")
}

// runSparse runs the sparse-traffic path: parse the matrix, resolve
// the algorithm (or let the planner pick), and replay the compiled
// sparse program through the shared executor with the matrix declared
// as the program's traffic — so the run delivery-verifies exactly it.
func runSparse(w io.Writer, tel *cli.Telemetry, alg string, fab topology.Fabric, spec string, params torusx.CostParams, execOpt exec.Options) error {
	m, err := cli.ResolveTraffic(spec, fab)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "traffic: %s\n", m)

	// One wall-clock request spans the whole pipeline — planning (for
	// auto), cache lookup, compile, arena acquire and replay all record
	// stages on it; named by the *requested* algorithm, so an auto
	// request's track reads "auto+..." while the model-time stream
	// carries the winner's label.
	req := tel.StartRequest(alg + "+" + spec + "@" + fab.String())
	execOpt.Request = req

	var pg *exec.Program
	var title string
	if alg == "auto" {
		plan, err := algorithm.PlanSparse(fab, m, params, execOpt)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "planner candidates on %s:\n", fab)
		for _, s := range plan.Scores {
			if s.Err != nil {
				fmt.Fprintf(w, "  %-14s excluded: %v\n", s.Name, s.Err)
				continue
			}
			fmt.Fprintf(w, "  %-14s %10.1f us  (steps=%d blocks=%d hops=%d rearr=%d)\n",
				s.Name, s.Completion, s.Measure.Steps, s.Measure.Blocks, s.Measure.Hops, s.Measure.RearrangedBlocks)
		}
		pg = plan.Program
		alg = plan.Winner
		title = fmt.Sprintf("%s (planner pick, sparse, delivery-verified)", alg)
	} else {
		b, err := algorithm.For(alg)
		if err != nil {
			return err
		}
		pg, err = algorithm.BuildSparseProgram(b, fab, m, execOpt)
		if err != nil {
			return err
		}
		title = fmt.Sprintf("%s (sparse, delivery-verified)", alg)
	}

	label := alg + "+" + spec + "@" + fab.String()
	rec, err := tel.Labeled(params, label)
	if err != nil {
		return err
	}
	execOpt.Telemetry = rec
	asp := req.Stage(obs.StageArenaAcquire)
	arena := pg.AcquireArena()
	asp.End()
	res, err := pg.RunArena(arena, execOpt)
	if err != nil {
		return err
	}
	pg.ReleaseArena(arena)
	if err := tel.Finish(w, fab, label); err != nil {
		return err
	}
	printReport(w, title, res.Measure, params)
	return nil
}

// runExecutor runs a registry algorithm through the shared executor,
// with telemetry attached when requested, and prints the cost report.
func runExecutor(w io.Writer, tel *cli.Telemetry, alg string, fab topology.Fabric, params torusx.CostParams, execOpt exec.Options) error {
	b, err := algorithm.For(alg)
	if err != nil {
		return err
	}
	if !b.Supports(fab) {
		return fmt.Errorf("algorithm %q does not support %s; have %s",
			alg, fab, strings.Join(algorithm.Supporting(fab), ", "))
	}
	label := b.Name() + "@" + fab.String()
	req := tel.StartRequest(label)
	execOpt.Request = req
	// Compile once (validation + lowering), then run the compiled fast
	// path; Serial/Workers/Telemetry stay run-time choices.
	pg, err := algorithm.BuildProgram(b, fab, execOpt)
	if err != nil {
		return err
	}
	rec, err := tel.Labeled(params, label)
	if err != nil {
		return err
	}
	execOpt.Telemetry = rec
	asp := req.Stage(obs.StageArenaAcquire)
	arena := pg.AcquireArena()
	asp.End()
	res, err := pg.RunArena(arena, execOpt)
	if err != nil {
		return err
	}
	pg.ReleaseArena(arena)
	if err := tel.Finish(w, fab, label); err != nil {
		return err
	}
	mode := "parallel"
	if execOpt.Serial {
		mode = "serial"
	}
	verified := "checked by the shared executor"
	if res.Replayed {
		verified = "replayed and delivery-verified by the shared executor"
	}
	printReport(w, fmt.Sprintf("%s (%s, %s)", b.Name(), verified, mode), res.Measure, params)
	return nil
}

func printReport(w io.Writer, title string, m torusx.Measure, p torusx.CostParams) {
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "  startups:          %d\n", m.Steps)
	fmt.Fprintf(w, "  blocks (critical): %d\n", m.Blocks)
	fmt.Fprintf(w, "  propagation hops:  %d\n", m.Hops)
	fmt.Fprintf(w, "  rearranged blocks: %d\n", m.RearrangedBlocks)
	fmt.Fprintf(w, "  completion (%s): %.1f us\n", p, p.Completion(m))
}

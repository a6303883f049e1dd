// Command aapetrace prints the communication schedule of any
// registered algorithm: phases, steps, and individual transfers,
// reproducing the step-by-step walk-throughs of the paper's
// Figures 1-3 for the proposed exchange and the equivalent traces for
// the baselines. Every algorithm is lowered to the shared schedule IR
// and validated by the shared executor before printing.
//
// Usage:
//
//	aapetrace -dims 12x12              # per-step summary (proposed)
//	aapetrace -dims 12x12 -alg direct  # any registered algorithm
//	aapetrace -dims 12x12 -detail      # every transfer (-limit N to truncate)
//	aapetrace -dims 12x12 -node 0      # one node's send/receive history
//	aapetrace -dims 12x12 -figure groups   # Figure 1(b): node-group grid
//	aapetrace -dims 12x12 -figure phase1   # per-node phase directions
//	aapetrace -dims 12x12x12 -figure phase1 -plane 1   # one Z plane of a 3D torus
//	aapetrace -dims 12x12 -figure quad1    # quad-phase step directions
//	aapetrace -dims 12x12 -json            # machine-readable schedule
//	aapetrace -dims 8x8 -trace-out t.json  # Perfetto-loadable timeline
//	aapetrace -dims 8x8 -heatmap           # ASCII link-utilization map
//	aapetrace -dims 8x8 -telemetry ev.jsonl  # raw event stream
//	aapetrace -fabric dragonfly -dims 2x4 -alg dimexchange  # dragonfly schedule
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"torusx/internal/algorithm"
	"torusx/internal/cli"
	"torusx/internal/costmodel"
	"torusx/internal/exec"
	"torusx/internal/obs"
	"torusx/internal/topology"
	"torusx/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		cli.Fatalf("aapetrace: %v", err)
	}
}

// run parses args and writes the trace to w; extracted from main for
// testing.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("aapetrace", flag.ContinueOnError)
	var (
		fabricFlag   = fs.String("fabric", "torus", "fabric kind: torus or dragonfly (D3(K,M), shape KxM)")
		dimsFlag     = fs.String("dims", "12x12", "fabric shape: torus dimensions like 12x8x4, or KxM for -fabric dragonfly")
		algFlag      = fs.String("alg", "proposed", "algorithm to trace: "+strings.Join(algorithm.Names(), ", "))
		detailFlag   = fs.Bool("detail", false, "print every transfer")
		limitFlag    = fs.Int("limit", 8, "max transfers shown per step in -detail (0 = all)")
		nodeFlag     = fs.Int("node", -1, "print one node's history instead")
		figFlag      = fs.String("figure", "", "render a Figure-1/2-style diagram: groups, phase1..phase3, quad1, quad2")
		planeFlag    = fs.Int("plane", 0, "Z plane for 3D -figure renderings")
		jsonFlag     = fs.Bool("json", false, "emit the schedule as JSON instead of text")
		parallelFlag = fs.Bool("parallel", true, "validate with the parallel executor (bit-identical to serial)")
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

	fab, err := cli.ParseFabric(*fabricFlag, *dimsFlag)
	if err != nil {
		return err
	}

	if *figFlag != "" && *trafficFlag != "" {
		return fmt.Errorf("-figure renders the dense algorithm structure; it cannot be combined with -traffic")
	}
	if *figFlag != "" {
		tor, ok := fab.(*topology.Torus)
		if !ok {
			return fmt.Errorf("-figure renderings are torus diagrams; %s is not a torus", fab)
		}
		var out string
		var ferr error
		switch *figFlag {
		case "groups":
			out, ferr = trace.Groups2D(tor)
		case "phase1", "phase2", "phase3":
			name := *figFlag
			p := int(name[len(name)-1] - '0')
			if tor.NDims() == 3 {
				out, ferr = trace.Phase3D(tor, p, *planeFlag)
			} else {
				out, ferr = trace.Phase2D(tor, p)
			}
		case "quad1":
			out, ferr = trace.QuadSteps2D(tor, 1)
		case "quad2":
			out, ferr = trace.QuadSteps2D(tor, 2)
		default:
			return fmt.Errorf("unknown figure %q", *figFlag)
		}
		if ferr != nil {
			return ferr
		}
		fmt.Fprint(w, out)
		return nil
	}

	b, err := algorithm.For(*algFlag)
	if err != nil {
		return err
	}
	if !b.Supports(fab) {
		return fmt.Errorf("algorithm %q does not support %s; have %s",
			*algFlag, fab, strings.Join(algorithm.Supporting(fab), ", "))
	}
	// Compile validates (and, for payload-carrying schedules, proves
	// replay and delivery); the run is the compiled fast path. The
	// timeline's attribution uses the paper's T3D machine parameters.
	// With -traffic, the printed schedule is the sparse specialization —
	// pruned (or natively built) for exactly the declared matrix.
	var pg *exec.Program
	label := *algFlag + "@" + fab.String()
	if *trafficFlag != "" {
		label = *algFlag + "+" + *trafficFlag + "@" + fab.String()
	}
	req := tel.StartRequest(label)
	bopt := exec.Options{Request: req}
	if *trafficFlag != "" {
		m, merr := cli.ResolveTraffic(*trafficFlag, fab)
		if merr != nil {
			return merr
		}
		fmt.Fprintf(w, "traffic: %s\n", m)
		pg, err = algorithm.BuildSparseProgram(b, fab, m, bopt)
	} else {
		pg, err = algorithm.BuildProgram(b, fab, bopt)
	}
	if err != nil {
		return err
	}
	sc, err := pg.Schedule()
	if err != nil {
		return err
	}
	rec, err := tel.Labeled(costmodel.T3D(64), label)
	if err != nil {
		return err
	}
	asp := req.Stage(obs.StageArenaAcquire)
	arena := pg.AcquireArena()
	asp.End()
	if _, err := pg.RunArena(arena, exec.Options{Serial: !*parallelFlag, Workers: *workersFlag, Telemetry: rec, Request: req}); err != nil {
		return err
	}
	pg.ReleaseArena(arena)
	if err := tel.Finish(w, fab, label); err != nil {
		return err
	}

	switch {
	case *jsonFlag:
		return sc.WriteJSON(w)
	case *nodeFlag >= 0:
		if *nodeFlag >= fab.Nodes() {
			return fmt.Errorf("node %d out of range (N=%d)", *nodeFlag, fab.Nodes())
		}
		fmt.Fprint(w, trace.NodeHistory(sc, *nodeFlag))
	case *detailFlag:
		fmt.Fprint(w, trace.Detail(sc, *limitFlag))
	default:
		fmt.Fprint(w, trace.Summary(sc))
	}
	return nil
}

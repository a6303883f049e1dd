package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"torusx/internal/cli"
	"torusx/internal/costmodel"
)

var p = costmodel.T3D(64)

// The paper's tables are deterministic: every number in them is a
// schedule count or a model time. Each test renders its table once and
// compares the bytes with its golden under testdata/; regenerate them
// deliberately with
//
//	go test ./cmd/aapetab -run Renders -update
func TestTable1Renders(t *testing.T) { checkGolden(t, "table1.txt", Table1(p)) }

func TestTable2Renders(t *testing.T) { checkGolden(t, "table2.txt", Table2(p)) }

func TestSweepRenders(t *testing.T) { checkGolden(t, "sweep.txt", Sweep(p)) }

func TestAblationRenders(t *testing.T) { checkGolden(t, "ablation.txt", Ablation(p)) }

func TestCrossoverRenders(t *testing.T) { checkGolden(t, "crossover.txt", Crossover(p)) }

func TestSwitchingRenders(t *testing.T) { checkGolden(t, "switching.txt", SwitchingTable(p)) }

var update = flag.Bool("update", false, "rewrite the table goldens under testdata/")

// checkGolden compares out with testdata/name, rewriting the file
// first under -update.
func checkGolden(t *testing.T, name, out string) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		t.Fatalf("output differs from %s (run with -update to accept):\n%s", golden, out)
	}
}

func TestReplayRenders(t *testing.T) {
	// Ring lowers to a payload-annotated schedule: the executor replays
	// and delivery-verifies it, and every timing backend completes.
	out, err := Replay(p, "ring", ReplayOpt{})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`Replay of "ring"`, "16x16", "verified", "eventsim", "WH cycles"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "deadlock") {
		t.Fatalf("ring is contention-free and must not deadlock the wormhole model:\n%s", out)
	}
	// Unknown algorithms are rejected by the registry.
	if _, err := Replay(p, "bogus", ReplayOpt{}); err == nil {
		t.Fatal("unknown algorithm should error")
	}
}

func TestReplayTelemetry(t *testing.T) {
	// Restrict the sweep to one shape so the tracked flit simulators
	// stay cheap, then ask for both post-run renderings.
	old := replayShapes
	replayShapes = [][]int{{8, 8}}
	defer func() { replayShapes = old }()

	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	tel := cli.RegisterTelemetry(fs)
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	if err := fs.Parse([]string{"-heatmap", "-trace-out", tracePath}); err != nil {
		t.Fatal(err)
	}
	out, err := Replay(p, "ring", ReplayOpt{Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"link utilization of 8x8 (256 links", "wrote Chrome trace"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("replay trace is not valid JSON: %v", err)
	}
	if len(tf.TraceEvents) == 0 {
		t.Fatal("replay trace has no events")
	}
}

func TestReplayReportsBuildErrors(t *testing.T) {
	// Shapes an algorithm cannot run on become annotated dash rows, and
	// the Direct-style wrap-around worms show up as a wormhole deadlock
	// rather than a crash.
	out, err := Replay(p, "logtime", ReplayOpt{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "power-of-two") {
		t.Fatalf("12x12 row should carry the build error:\n%s", out)
	}
	if !strings.Contains(out, "deadlock") {
		t.Fatalf("distance-2^r worms should deadlock the wormhole model:\n%s", out)
	}
}

func TestCrossTs(t *testing.T) {
	a := costmodel.Measure{Steps: 10, Blocks: 100}
	b := costmodel.Measure{Steps: 5, Blocks: 200}
	// ts* = (extra volume cost of b) / (extra steps of a)
	// = (100 blocks * 64 B * 0.01 us/B) / 5 = 12.8us.
	if got := crossTs(p, a, b); got != "12.8us" {
		t.Fatalf("crossTs = %q", got)
	}
	if got := crossTs(p, b, a); got != "-" {
		t.Fatalf("fewer startups should give -, got %q", got)
	}
	dom := costmodel.Measure{Steps: 5, Blocks: 50}
	if got := crossTs(p, a, dom); got != "never (dominated)" {
		t.Fatalf("dominated case = %q", got)
	}
}

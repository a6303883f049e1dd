package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runOut(t *testing.T, args ...string) string {
	t.Helper()
	var b strings.Builder
	if err := run(args, &b); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return b.String()
}

func TestRunProposed(t *testing.T) {
	out := runOut(t, "-dims", "12x12")
	for _, want := range []string{"startups:          8", "blocks (critical): 576", "phases: 4", "non-contiguous sends: 0"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
}

func TestRunVirtualAlg(t *testing.T) {
	out := runOut(t, "-dims", "6x5", "-alg", "virtual")
	for _, want := range []string{"real nodes: 30", "padded shape: [8 8]", "max host load"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
}

func TestRunBaselines(t *testing.T) {
	out := runOut(t, "-dims", "8x8", "-alg", "direct")
	if !strings.Contains(out, "startups:          63") {
		t.Fatalf("direct output:\n%s", out)
	}
	out = runOut(t, "-dims", "8x8", "-alg", "ring")
	if !strings.Contains(out, "startups:          14") {
		t.Fatalf("ring output:\n%s", out)
	}
	out = runOut(t, "-dims", "16x16", "-alg", "logtime")
	if !strings.Contains(out, "startups:          8") {
		t.Fatalf("logtime output:\n%s", out)
	}
}

func TestRunSerialFlag(t *testing.T) {
	out := runOut(t, "-dims", "8x8", "-alg", "direct", "-parallel=false")
	if !strings.Contains(out, "serial") {
		t.Fatalf("-parallel=false not reflected in report title:\n%s", out)
	}
	if !strings.Contains(out, "startups:          63") {
		t.Fatalf("serial path changed the measure:\n%s", out)
	}
	out = runOut(t, "-dims", "8x8", "-alg", "direct", "-workers", "3")
	if !strings.Contains(out, "parallel") {
		t.Fatalf("default mode should report parallel:\n%s", out)
	}
}

func TestRunErrors(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-dims", "abc"}, &b); err == nil {
		t.Fatal("bad dims should fail")
	}
	if err := run([]string{"-dims", "10x8"}, &b); err == nil {
		t.Fatal("invalid shape should fail")
	}
	if err := run([]string{"-alg", "bogus"}, &b); err == nil {
		t.Fatal("unknown algorithm should fail")
	}
	if err := run([]string{"-dims", "12x8", "-alg", "logtime"}, &b); err == nil {
		t.Fatal("logtime needs power-of-two dims")
	}
	if err := run([]string{"-dims", "5x9", "-alg", "virtual"}, &b); err == nil {
		t.Fatal("increasing dims should fail")
	}
}

func TestTelemetryFlags(t *testing.T) {
	// With telemetry requested, the proposed algorithm reroutes through
	// the executor so the run has a timeline to record.
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	out := runOut(t, "-dims", "8x8", "-heatmap", "-trace-out", tracePath)
	if !strings.Contains(out, "link utilization of 8x8 (256 links") {
		t.Fatalf("missing heatmap:\n%s", out)
	}
	if !strings.Contains(out, "wrote Chrome trace") {
		t.Fatalf("missing trace confirmation:\n%s", out)
	}
	if fi, err := os.Stat(tracePath); err != nil || fi.Size() == 0 {
		t.Fatalf("trace file missing or empty: %v", err)
	}
	// The virtual-node exchange replays inside torusx, which records no
	// timeline, so telemetry on it is an explicit error rather than a
	// silent no-op.
	var b strings.Builder
	if err := run([]string{"-dims", "8x8", "-alg", "virtual", "-heatmap"}, &b); err == nil {
		t.Fatal("telemetry on a non-executor algorithm should error")
	}
}

func TestCostParamsFlags(t *testing.T) {
	out := runOut(t, "-dims", "8x8", "-ts", "100", "-m", "8")
	if !strings.Contains(out, "ts=100us") || !strings.Contains(out, "m=8B") {
		t.Fatalf("params not applied:\n%s", out)
	}
}

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"torusx/internal/benchfmt"
)

// TestBenchSmoke8x8 runs the sweep on 8x8 in -quick mode and checks
// the emitted ledger round-trips through the schema validator.
func TestBenchSmoke8x8(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_exec.json")
	var buf bytes.Buffer
	if err := run([]string{"-dims", "8x8", "-quick", "-out", out}, &buf); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ledger, err := benchfmt.Decode(f) // Decode validates
	if err != nil {
		t.Fatal(err)
	}
	if len(ledger.Entries) < 6 {
		t.Fatalf("only %d entries for 8x8 across the registry", len(ledger.Entries))
	}
	if !strings.Contains(buf.String(), "proposed") {
		t.Fatalf("summary table missing algorithms:\n%s", buf.String())
	}
}

// TestBenchGolden8x8 pins the deterministic columns of the committed
// BENCH_exec.json: a fresh 8x8 sweep must reproduce every golden
// entry's steps/blocks/hops/rearranged/max_sharing exactly (the
// timing columns are host-specific and ignored). A drift here means an
// algorithm's cost profile changed and the golden must be regenerated
// deliberately with `go run ./cmd/aapebench -dims 8x8 -out
// BENCH_exec.json`.
func TestBenchGolden8x8(t *testing.T) {
	gf, err := os.Open(filepath.Join("..", "..", "BENCH_exec.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer gf.Close()
	golden, err := benchfmt.Decode(gf)
	if err != nil {
		t.Fatalf("committed BENCH_exec.json invalid: %v", err)
	}

	out := filepath.Join(t.TempDir(), "BENCH_exec.json")
	var buf bytes.Buffer
	if err := run([]string{"-dims", "8x8", "-quick", "-out", out}, &buf); err != nil {
		t.Fatal(err)
	}
	ff, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer ff.Close()
	fresh, err := benchfmt.Decode(ff)
	if err != nil {
		t.Fatal(err)
	}

	freshBy := fresh.ByKey()
	compared := 0
	for _, g := range golden.Entries {
		if len(g.Dims) != 2 || g.Dims[0] != 8 || g.Dims[1] != 8 {
			continue // golden may carry other shapes; the smoke pin is 8x8
		}
		got, ok := freshBy[g.Key()]
		if !ok {
			t.Errorf("golden entry %s missing from fresh sweep", g.Key())
			continue
		}
		gd := [5]int{g.Steps, g.Blocks, g.Hops, g.Rearranged, g.MaxSharing}
		fd := [5]int{got.Steps, got.Blocks, got.Hops, got.Rearranged, got.MaxSharing}
		if !reflect.DeepEqual(gd, fd) {
			t.Errorf("%s deterministic fields drifted: golden %v, fresh %v", g.Key(), gd, fd)
		}
		compared++
	}
	if compared == 0 {
		t.Fatal("no 8x8 entries in committed BENCH_exec.json")
	}
}

// TestBenchSerialMatchesParallelCounters: the ledger's deterministic
// columns must not depend on which executor path timed them.
func TestBenchSerialMatchesParallelCounters(t *testing.T) {
	sweep := func(extra ...string) *benchfmt.File {
		out := filepath.Join(t.TempDir(), "b.json")
		args := append([]string{"-dims", "8x8", "-algs", "proposed,direct,factored", "-quick", "-out", out}, extra...)
		var buf bytes.Buffer
		if err := run(args, &buf); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(out)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		ledger, err := benchfmt.Decode(f)
		if err != nil {
			t.Fatal(err)
		}
		return ledger
	}
	par := sweep()
	ser := sweep("-parallel=false")
	serBy := ser.ByKey()
	for _, pe := range par.Entries {
		se := serBy[pe.Key()]
		if se == nil {
			t.Fatalf("serial sweep missing %s", pe.Key())
		}
		if pe.Steps != se.Steps || pe.Blocks != se.Blocks || pe.Hops != se.Hops ||
			pe.Rearranged != se.Rearranged || pe.MaxSharing != se.MaxSharing {
			t.Errorf("%s: parallel %+v vs serial %+v", pe.Key(), pe, se)
		}
	}
}

// TestBenchRejectsBadShape: an invalid shape must fail cleanly.
// TestBenchTelemetryAndSamples checks the observability riders: the
// -samples spread columns land in the ledger, and -heatmap/-trace-out
// render from the untimed telemetry run without perturbing validation.
func TestBenchTelemetryAndSamples(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "BENCH.json")
	tracePath := filepath.Join(dir, "trace.json")
	var buf bytes.Buffer
	args := []string{"-dims", "8x8", "-algs", "proposed,direct", "-quick",
		"-samples", "3", "-heatmap", "-trace-out", tracePath, "-out", out}
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "link utilization of 8x8 (256 links") {
		t.Fatalf("missing heatmap:\n%s", buf.String())
	}
	if fi, err := os.Stat(tracePath); err != nil || fi.Size() == 0 {
		t.Fatalf("trace file missing or empty: %v", err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ledger, err := benchfmt.Decode(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ledger.Entries {
		if e.Samples != 3 || e.NsMin <= 0 || e.NsMax < e.NsMin || e.NsStddev < 0 {
			t.Fatalf("spread columns malformed: %+v", e)
		}
	}
}

func TestBenchRejectsBadShape(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-dims", "8xqq"}, &buf); err == nil {
		t.Fatal("bad shape accepted")
	}
}

// TestBenchBaseline exercises the -baseline regression gate: comparing
// a fresh quick sweep against itself must pass and print the delta
// table, while comparing it against a baseline that claims far fewer
// bytes moved must make run() fail with the regression error.
func TestBenchBaseline(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	var buf bytes.Buffer
	args := []string{"-dims", "8x8", "-algs", "proposed,direct", "-quick", "-out", base}
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}

	// Same sweep vs itself: deltas printed, no regression.
	out := filepath.Join(dir, "cur.json")
	buf.Reset()
	args = []string{"-dims", "8x8", "-algs", "proposed,direct", "-quick", "-out", out, "-baseline", base}
	if err := run(args, &buf); err != nil {
		t.Fatalf("self-comparison regressed: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "vs "+base) {
		t.Fatalf("missing delta table header:\n%s", buf.String())
	}

	// A baseline whose direct cell moved a single byte: today's bytes
	// exceed it beyond any tolerance, so the gate must trip.
	f, err := os.Open(base)
	if err != nil {
		t.Fatal(err)
	}
	ledger, err := benchfmt.Decode(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	for i := range ledger.Entries {
		if ledger.Entries[i].Alg == "direct" {
			ledger.Entries[i].BytesMoved = 1
		}
	}
	doctored := filepath.Join(dir, "doctored.json")
	df, err := os.Create(doctored)
	if err != nil {
		t.Fatal(err)
	}
	if err := ledger.Write(df); err != nil {
		t.Fatal(err)
	}
	df.Close()
	buf.Reset()
	args = []string{"-dims", "8x8", "-algs", "proposed,direct", "-quick",
		"-out", filepath.Join(dir, "cur2.json"), "-baseline", doctored}
	err = run(args, &buf)
	if err == nil || !strings.Contains(err.Error(), "regressed") {
		t.Fatalf("bytes regression not flagged: err=%v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "REGRESSED") {
		t.Fatalf("delta table missing REGRESSED mark:\n%s", buf.String())
	}
}

// TestBenchTenantSweep exercises the -shapes multi-tenant mode: every
// request must come back from the process-wide program cache (the
// timed sweep already compiled each cell), so the sweep reports zero
// compiles, and the cache footer rides on the summary.
func TestBenchTenantSweep(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-dims", "8x8", "-algs", "direct,ring", "-quick", "-samples", "0", "-shapes", "4", "-out", "-"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "tenant sweep: 4 tenants") {
		t.Fatalf("missing tenant sweep report:\n%s", out)
	}
	if !strings.Contains(out, "compiles +0") {
		t.Fatalf("tenant sweep recompiled cached cells:\n%s", out)
	}
	// The footer is the metrics registry's view of the sweep: progcache
	// counters plus the arenas' traffic.
	if !strings.Contains(out, "progcache.hits") {
		t.Fatalf("missing registry footer:\n%s", out)
	}
	if !strings.Contains(out, "exec.arena.acquires") {
		t.Fatalf("missing arena counters in registry footer:\n%s", out)
	}
}

// TestBenchSampleEnvelope: whenever the spread columns are present the
// ledger must satisfy ns_min <= ns_per_op <= ns_max (Decode enforces
// it; this test makes the producer prove it on a live sweep).
func TestBenchSampleEnvelope(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_exec.json")
	var buf bytes.Buffer
	if err := run([]string{"-dims", "8x8", "-algs", "allgather,direct", "-quick", "-samples", "5", "-out", out}, &buf); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ledger, err := benchfmt.Decode(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ledger.Entries {
		if e.Samples < 2 {
			t.Fatalf("%s: expected sampled entry, got %d samples", e.Key(), e.Samples)
		}
		if e.NsPerOp < e.NsMin || e.NsPerOp > e.NsMax {
			t.Fatalf("%s: ns_per_op %v outside [%v, %v]", e.Key(), e.NsPerOp, e.NsMin, e.NsMax)
		}
		if !e.Compiled || e.CompileNs <= 0 || e.CompileAllocs < 0 {
			t.Fatalf("%s: missing compile columns: %+v", e.Key(), e)
		}
	}
}

// TestBenchParallelLabelFollowsCores: a one-cell sweep at GOMAXPROCS 1
// runs every fan-out inline, so its entry is not labelled parallel; the
// same sweep on two cores is, and -parallel=false never is.
func TestBenchParallelLabelFollowsCores(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range []struct {
		procs   int
		extra   []string
		wantPar bool
	}{
		{1, nil, false},
		{2, nil, true},
		{2, []string{"-parallel=false"}, false},
	} {
		runtime.GOMAXPROCS(tc.procs)
		out := filepath.Join(t.TempDir(), "b.json")
		args := append([]string{"-dims", "8x8", "-algs", "ring", "-quick", "-samples", "0", "-out", out}, tc.extra...)
		if err := run(args, new(bytes.Buffer)); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(out)
		if err != nil {
			t.Fatal(err)
		}
		ledger, err := benchfmt.Decode(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if ledger.GoMaxProcs != tc.procs || len(ledger.Entries) != 1 {
			t.Fatalf("GOMAXPROCS %d %v: ledger at gomaxprocs %d with %d entries, want one", tc.procs, tc.extra, ledger.GoMaxProcs, len(ledger.Entries))
		}
		if got := ledger.Entries[0].Parallel; got != tc.wantPar {
			t.Errorf("GOMAXPROCS %d %v: parallel = %v, want %v", tc.procs, tc.extra, got, tc.wantPar)
		}
	}
}

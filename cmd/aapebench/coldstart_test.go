package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"torusx/internal/algorithm"
	"torusx/internal/benchfmt"
	"torusx/internal/exec"
	"torusx/internal/topology"
)

// TestColdStartLedgerGate is the CI cold-start gate: the 16x16 direct
// exchange must compile (exec.Compile alone, prebuilt schedule) in
// under 20ms and load from a warm tier-2 disk cache in under 2.5ms. The
// test times both here, on the code under test, with coldStartTimings
// (min of 3 samples, each after a forced collection), taking the best
// of up to five rounds so that a burst of load from other processes
// does not fail it; a regression in the parallel lowering or the codec
// fails every round. The committed ledger must carry both columns for
// the cell and clear the same bars. The bars were set for a single-core
// recording box, where the parallel lowering runs serially (14.6ms) and
// the load measured 1.5ms; they hold on the 2-vCPU class too.
func TestColdStartLedgerGate(t *testing.T) {
	const maxCompileNs, maxLoadNs = 20e6, 2.5e6
	tor := topology.MustNew(16, 16)
	b, err := algorithm.For("direct")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := b.BuildSchedule(tor)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := exec.Compile(sc, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	compile, load := math.Inf(1), math.Inf(1)
	for round := 0; round < 5 && (compile >= maxCompileNs || load >= maxLoadNs); round++ {
		c, l := coldStartTimings(b, tor, pg, exec.Options{})
		if c <= 0 || l <= 0 {
			t.Fatalf("coldStartTimings measured compile %.0fns, tier-2 load %.0fns", c, l)
		}
		compile, load = min(compile, c), min(load, l)
	}
	t.Logf("direct@16x16: compile %.2fms, tier-2 load %.2fms", compile/1e6, load/1e6)
	if compile >= maxCompileNs {
		t.Errorf("direct@16x16 cold compile %.2fms, gate is <20ms", compile/1e6)
	}
	if load >= maxLoadNs {
		t.Errorf("direct@16x16 tier-2 load %.2fms, gate is <2.5ms", load/1e6)
	}

	gf, err := os.Open(filepath.Join("..", "..", "BENCH_exec.json"))
	if err != nil {
		t.Fatalf("committed ledger: %v", err)
	}
	defer gf.Close()
	var f benchfmt.File
	if err := json.NewDecoder(gf).Decode(&f); err != nil {
		t.Fatal(err)
	}
	if err := f.Validate(); err != nil {
		t.Fatalf("committed BENCH_exec.json invalid: %v", err)
	}
	found := false
	for i := range f.Entries {
		e := &f.Entries[i]
		if e.Alg != "direct" || len(e.Dims) != 2 || e.Dims[0] != 16 || e.Dims[1] != 16 || e.Traffic != "" {
			continue
		}
		found = true
		if e.CompileParallelNs <= 0 {
			t.Error("committed direct@16x16 has no compile_parallel_ns column")
		} else if e.CompileParallelNs >= maxCompileNs {
			t.Errorf("committed direct@16x16 cold compile %.2fms, gate is <20ms", e.CompileParallelNs/1e6)
		}
		if e.Tier2LoadNs <= 0 {
			t.Error("committed direct@16x16 has no tier2_load_ns column")
		} else if e.Tier2LoadNs >= maxLoadNs {
			t.Errorf("committed direct@16x16 tier-2 load %.2fms, gate is <2.5ms", e.Tier2LoadNs/1e6)
		}
	}
	if !found {
		t.Fatal("no dense direct@16x16 entry in committed ledger")
	}
}

// TestPrewarmPack: -prewarm fills the disk tier with one file per
// (shape, algorithm) cell of the sweep grid and reports the stores in
// its footer. (A fresh process serving the pack with zero compiles is
// covered by progcache's TestTier2CrossProcessWarmth; the cache here
// is process-wide and already warm.)
func TestPrewarmPack(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	if err := run([]string{"-prewarm", "-progcache-dir", dir, "-dims", "4x4,2x2x2", "-algs", "direct,factored"}, &out); err != nil {
		t.Fatalf("prewarm: %v\n%s", err, out.String())
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.txpg"))
	if err != nil || len(files) != 4 {
		t.Fatalf("want 4 packed programs, got %v (%v)\n%s", files, err, out.String())
	}
	if !strings.Contains(out.String(), "+4 stored") {
		t.Fatalf("prewarm footer missing store count:\n%s", out.String())
	}
}

func TestPrewarmNeedsDir(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-prewarm", "-dims", "4x4"}, &out); err == nil {
		t.Fatal("prewarm without -progcache-dir succeeded")
	}
}

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"torusx/internal/obs"
)

// TestMetricsOutParses is the CI observability gate's in-repo half: a
// short sweep with -metrics-out must produce a Prometheus dump that
// passes the strict structural parse (every counter non-negative,
// bucket counts cumulative, +Inf bucket equal to _count) and carries
// the pipeline's stage histograms and the cache/arena counter families.
func TestMetricsOutParses(t *testing.T) {
	metricsPath := filepath.Join(t.TempDir(), "metrics.prom")
	var buf bytes.Buffer
	if err := run([]string{"-dims", "8x8", "-algs", "direct,ring", "-quick", "-samples", "3",
		"-out", "-", "-metrics-out", metricsPath}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "wrote metrics dump to") {
		t.Fatalf("missing metrics confirmation:\n%s", buf.String())
	}
	f, err := os.Open(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pm, err := obs.ParsePrometheus(f)
	if err != nil {
		t.Fatalf("metrics dump failed structural validation: %v", err)
	}
	for _, want := range []string{"torusx_progcache_hits", "torusx_progcache_misses", "torusx_exec_arena_acquires", "torusx_exec_arena_creates"} {
		if pm.Types[want] != "counter" {
			t.Errorf("dump missing counter %s; types: %v", want, pm.Types)
		}
	}
	for _, want := range []string{"torusx_stage_replay_ns", "torusx_stage_arena_acquire_ns"} {
		if pm.Types[want] != "histogram" {
			t.Errorf("dump missing histogram %s", want)
		}
	}
	// The per-cell bench histograms carry the sampled replay latencies.
	found := false
	for name, typ := range pm.Types {
		if typ == "histogram" && strings.HasPrefix(name, "torusx_bench_") {
			found = true
		}
	}
	if !found {
		t.Errorf("dump has no per-cell bench histograms; types: %v", pm.Types)
	}
}

// TestMetricsStageFamiliesAreStageNames: every torusx_stage_* family a
// sweep's Prometheus dump carries is the histogram of a stage named in
// obs.StageNames, so the dump, the ledger's layers and the Perfetto
// stage spans share one vocabulary; the delivery pass is among them.
func TestMetricsStageFamiliesAreStageNames(t *testing.T) {
	metricsPath := filepath.Join(t.TempDir(), "metrics.prom")
	var buf bytes.Buffer
	if err := run([]string{"-dims", "8x8", "-algs", "proposed-sim", "-quick", "-samples", "0",
		"-out", "-", "-metrics-out", metricsPath}, &buf); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pm, err := obs.ParsePrometheus(f)
	if err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	for _, name := range obs.StageNames() {
		known["torusx_stage_"+strings.ReplaceAll(name, "-", "_")+"_ns"] = true
	}
	stages := 0
	for name := range pm.Types {
		if !strings.HasPrefix(name, "torusx_stage_") {
			continue
		}
		stages++
		if !known[name] {
			t.Errorf("dump family %s names no stage in obs.StageNames", name)
		}
	}
	if stages == 0 || pm.Types["torusx_stage_deliver_ns"] != "histogram" {
		t.Errorf("dump has %d stage families, want the deliver stage among them; types: %v", stages, pm.Types)
	}
}

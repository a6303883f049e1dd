package main

import (
	"encoding/json"
	"fmt"
	"os"
	osexec "os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// mainEnv makes the test binary act as the benchmark. The benchmark
// starts its child processes by re-running its own binary, which under
// go test is the test binary.
const mainEnv = "TORUSX_BENCHMARK_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(mainEnv) == "1" {
		os.Exit(run(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

// spanNames is the trace vocabulary: the stage names internal/obs uses
// inside the program, the benchmark's own diagnostic and process spans,
// and "request", the root of one timed request.
var spanNames = []string{
	"request",
	"cache-lookup", "plan", "compile", "tier2-store", "tier2-load", "arena-acquire", "replay",
	"codec-encode", "codec-decode", "replay-into", "replay-serial", "oracle-check", "proc-spawn",
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestSmoke runs every workload on its small shape, untraced and
// traced, child processes included. Each run must print every metric
// BENCHMARK.json names for its mode, as a line with its unit and in the
// last line's JSON, fail no request, and, when traced, write a Chrome
// trace whose spans all use the trace vocabulary.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []specMetric            `json:"end_to_end"`
		PerLayer  []specMetric            `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	seen := map[string]bool{}
	for _, w := range spec.Workloads {
		for trace, want := range [][]specMetric{spec.EndToEnd, spec.PerLayer} {
			t.Run(fmt.Sprintf("%s/trace%d", w.Name, trace), func(t *testing.T) {
				tracePath := filepath.Join(dir, w.Name+".trace.json")
				cmd := osexec.Command(self, "-workload", w.Name, "-smoke", "-seed", "1",
					"-trace", strconv.Itoa(trace), "-trace-out", tracePath)
				cmd.Dir = dir
				cmd.Env = append(os.Environ(), mainEnv+"=1")
				cmd.Stderr = os.Stderr
				out, err := cmd.Output()
				if err != nil {
					t.Fatalf("benchmark: %v\n%s", err, out)
				}
				lines := strings.Split(strings.TrimSpace(string(out)), "\n")
				var res resultLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("correct %v, %d of %d requests failed", res.Correct, res.Failed, res.Attempted)
				}
				printed := map[string]string{}
				for _, l := range lines {
					if f := strings.Fields(l); len(f) >= 3 {
						printed[f[0]] = f[1] + " " + f[2]
					}
				}
				if got := printed["fail_ratio"]; got != "0 ratio" {
					t.Errorf("fail_ratio printed as %q, want 0", got)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics in the result line, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v in the result line, want unit %s", m.Name, got, m.Unit)
					}
					if p := printed[m.Name]; !strings.HasSuffix(p, " "+m.Unit) {
						t.Errorf("metric %s printed as %q, want its unit %s", m.Name, p, m.Unit)
					}
				}
				if trace == 1 {
					checkTrace(t, tracePath, seen)
				}
			})
		}
	}
	// Each span name appears in some workload's trace; no workload
	// calls every layer.
	for _, n := range spanNames {
		if !seen[n] {
			t.Errorf("no trace has a %q span", n)
		}
	}
}

// checkTrace parses the Chrome trace at path, checks that every span
// uses the vocabulary, and adds the span names to seen.
func checkTrace(t *testing.T, path string, seen map[string]bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("trace: %v", err)
	}
	vocab := map[string]bool{}
	for _, n := range spanNames {
		vocab[n] = true
	}
	for _, ev := range tf.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if !vocab[ev.Name] {
			t.Errorf("trace span %q is not in the vocabulary", ev.Name)
		}
		if ev.Dur < 0 {
			t.Errorf("trace span %q has negative duration", ev.Name)
		}
		seen[ev.Name] = true
	}
}

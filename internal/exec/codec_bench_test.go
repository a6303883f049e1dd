package exec_test

import (
	"runtime/metrics"
	"slices"
	"testing"
	"time"

	"torusx/internal/algorithm"
	"torusx/internal/baseline"
	"torusx/internal/exec"
	"torusx/internal/obs"
	"torusx/internal/schedule"
	"torusx/internal/topology"
)

// The cold-start trio on the gate shape: what a cold process pays to
// compile the 16x16 direct exchange from a prebuilt schedule, versus
// what it pays to encode or decode the same program through the
// versioned codec. The ledger's compile_parallel_ns and tier2_load_ns
// columns (and the CI cold-start gate) bound the first and the last.

// coldCells are the five all-to-all algorithms that carry payloads:
// the cells of the cold-start benchmarks and the compile budget.
var coldCells = []string{"direct", "factored", "logtime", "proposed-sim", "ring"}

func cold16(b *testing.B) (*exec.Program, []byte) {
	b.Helper()
	tor := topology.MustNew(16, 16)
	pg, err := exec.Compile(mustCollect(tor, baseline.EmitDirect), exec.Options{})
	if err != nil {
		b.Fatal(err)
	}
	enc, err := exec.EncodeProgram(pg, 0)
	if err != nil {
		b.Fatal(err)
	}
	return pg, enc
}

// BenchmarkColdCompile16 compiles each cold-start cell's 16x16
// schedule two ways: "compile" runs Compile on the schedule, built once
// outside the timer, and "stream" runs the builder into CompileStream,
// BuildProgram's miss path without the cache. Only the stream row shows
// adoption: Compile copies the payload ids its caller owns. Each compile
// carries a request, and the benchmark reports the stages from it as
// <stage>-ms/op (the builder's "plan" on the stream row, overlapping
// the others); the request is opened and read outside the timer. Both
// rows report the collections the compiles ran as gc-cycles/op, from
// runtime/metrics, and where getrusage exists the process's CPU time
// (user and system, every thread) as cpu-ms/op and its minor page
// faults as minor-faults/op, and both the node classes the program was
// compiled with as classes/op (see exec.ReplayStats.Classes).
func BenchmarkColdCompile16(b *testing.B) {
	tor := topology.MustNew(16, 16)
	stages := []string{obs.StageLower, obs.StageReferenceReplay, obs.StagePlanDescriptors, obs.StageSeal, obs.StagePlan}
	for _, alg := range coldCells {
		bld, err := algorithm.For(alg)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(alg+"/compile", func(b *testing.B) {
			sc, err := bld.BuildSchedule(tor)
			if err != nil {
				b.Fatal(err)
			}
			benchCompile(b, alg, stages[:4], func(opt exec.Options) (*exec.Program, error) {
				return exec.Compile(sc, opt)
			})
		})
		b.Run(alg+"/stream", func(b *testing.B) {
			emit := func(s schedule.Sink) error { return bld.EmitSchedule(tor, s) }
			benchCompile(b, alg, stages, func(opt exec.Options) (*exec.Program, error) {
				return exec.CompileStream(tor, emit, opt)
			})
		})
	}
}

// benchCompile times compile b.N times, each with a fresh request, and
// reports the request's stages named in stages, the collections run and
// the program's node classes.
func benchCompile(b *testing.B, alg string, stages []string, compile func(exec.Options) (*exec.Program, error)) {
	reg := obs.NewRegistry()
	sum := make([]time.Duration, len(stages))
	gc := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(gc)
	gc0 := gc[0].Value.Uint64()
	cpu0, faults0, haveRusage := rusage()
	classes := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		req := reg.StartRequest(alg)
		b.StartTimer()
		pg, err := compile(exec.Options{Request: req})
		if err != nil {
			b.Fatal(err)
		}
		classes = pg.Stats().Classes
		b.StopTimer()
		for _, st := range req.Stages() {
			if k := slices.Index(stages, st.Name); k >= 0 {
				sum[k] += st.End - st.Start
			}
		}
		b.StartTimer()
	}
	b.StopTimer()
	metrics.Read(gc)
	for k, name := range stages {
		b.ReportMetric(float64(sum[k])/float64(time.Millisecond)/float64(b.N), name+"-ms/op")
	}
	b.ReportMetric(float64(gc[0].Value.Uint64()-gc0)/float64(b.N), "gc-cycles/op")
	b.ReportMetric(float64(classes), "classes/op")
	if cpu1, faults1, _ := rusage(); haveRusage {
		b.ReportMetric(float64(cpu1-cpu0)/float64(time.Millisecond)/float64(b.N), "cpu-ms/op")
		b.ReportMetric(float64(faults1-faults0)/float64(b.N), "minor-faults/op")
	}
}

func BenchmarkProgramEncode16(b *testing.B) {
	pg, enc := cold16(b)
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.EncodeProgram(pg, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProgramDecode16(b *testing.B) {
	_, enc := cold16(b)
	tor := topology.MustNew(16, 16)
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.DecodeProgram(enc, tor, 0); err != nil {
			b.Fatal(err)
		}
	}
}

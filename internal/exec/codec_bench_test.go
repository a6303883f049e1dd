package exec_test

import (
	"slices"
	"testing"
	"time"

	"torusx/internal/algorithm"
	"torusx/internal/baseline"
	"torusx/internal/exec"
	"torusx/internal/obs"
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
	pg, err := exec.Compile(baseline.DirectSchedule(tor), exec.Options{})
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
// schedule, built once outside the timer. Each compile carries a
// request, and the benchmark reports Compile's stages from it as
// <stage>-ms/op; the request is opened and read outside the timer.
func BenchmarkColdCompile16(b *testing.B) {
	tor := topology.MustNew(16, 16)
	stages := []string{obs.StageLower, obs.StageReferenceReplay, obs.StagePlanDescriptors, obs.StageSeal}
	for _, alg := range coldCells {
		b.Run(alg, func(b *testing.B) {
			bld, err := algorithm.For(alg)
			if err != nil {
				b.Fatal(err)
			}
			sc, err := bld.BuildSchedule(tor)
			if err != nil {
				b.Fatal(err)
			}
			reg := obs.NewRegistry()
			sum := make([]time.Duration, len(stages))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				req := reg.StartRequest(alg)
				b.StartTimer()
				if _, err := exec.Compile(sc, exec.Options{Request: req}); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				for _, st := range req.Stages() {
					if k := slices.Index(stages, st.Name); k >= 0 {
						sum[k] += st.End - st.Start
					}
				}
				b.StartTimer()
			}
			for k, name := range stages {
				b.ReportMetric(float64(sum[k])/float64(time.Millisecond)/float64(b.N), name+"-ms/op")
			}
		})
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

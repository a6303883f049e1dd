//go:build unix

package baseline

import (
	"runtime/metrics"
	"syscall"
	"testing"

	"torusx/internal/schedule"
	"torusx/internal/topology"
)

// BenchmarkBuildSchedule32 times each builder at 32x32, the shape of
// the replay-32x32 workload's set-up compiles, with its allocations and
// the counters meter reports. Its name stays out of the
// BuildSchedule16 smoke pattern on purpose: one ring build here
// allocates over 100 MiB.
func BenchmarkBuildSchedule32(b *testing.B) {
	tor := topology.MustNew(32, 32)
	for _, c := range builders {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			defer meter(b)()
			for i := 0; i < b.N; i++ {
				sc, err := schedule.Collect(tor, c.emit)
				if err != nil {
					b.Fatal(err)
				}
				schedSink = sc
			}
		})
	}
}

// meter starts counting and returns the func that reports, per op of
// b, the process's CPU time (user and system, every thread) as
// cpu-ms/op, its minor page faults as minor-faults/op and the GC cycles
// run as gc-cycles/op.
func meter(b *testing.B) func() {
	var ru0, ru1 syscall.Rusage
	gc := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(gc)
	gc0 := gc[0].Value.Uint64()
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru0); err != nil {
		b.Fatal(err)
	}
	return func() {
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru1); err != nil {
			b.Fatal(err)
		}
		metrics.Read(gc)
		n := float64(b.N)
		cpu := ru1.Utime.Nano() + ru1.Stime.Nano() - ru0.Utime.Nano() - ru0.Stime.Nano()
		b.ReportMetric(float64(cpu)/1e6/n, "cpu-ms/op")
		b.ReportMetric(float64(ru1.Minflt-ru0.Minflt)/n, "minor-faults/op")
		b.ReportMetric(float64(gc[0].Value.Uint64()-gc0)/n, "gc-cycles/op")
	}
}

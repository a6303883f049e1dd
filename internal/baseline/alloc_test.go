package baseline

import (
	"runtime"
	"testing"

	"torusx/internal/schedule"
	"torusx/internal/topology"
)

// builders are the four baseline emitters, as the algorithm registry
// registers them.
var builders = []struct {
	name string
	emit func(*topology.Torus, schedule.Sink) error
	// maxMiB pins the bytes one build allocates at 16x16: the measured
	// 9.24, 1.21, 1.21 and 4.48 MiB (linux/amd64) plus 25%.
	maxMiB float64
}{
	{"direct", EmitDirect, 11.6},
	{"factored", EmitFactored, 1.52},
	{"logtime", EmitLogTime, 1.52},
	{"ring", EmitRing, 5.61},
}

var schedSink *schedule.Schedule

// BenchmarkBuildSchedule16 times each builder at the cold-start shape,
// with its allocations: a cold request pays for every byte a build
// allocates, kept or not.
func BenchmarkBuildSchedule16(b *testing.B) {
	tor := topology.MustNew(16, 16)
	for _, c := range builders {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
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

// allocatedMiB returns the heap bytes fn allocates, in MiB.
func allocatedMiB(fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
}

// TestBuildScheduleAllocBudget pins the bytes each builder allocates at
// 16x16, so a build that starts growing slices by append or copying
// scratch it throws away again fails here rather than only in the
// cold-start benchmark.
func TestBuildScheduleAllocBudget(t *testing.T) {
	tor := topology.MustNew(16, 16)
	for _, c := range builders {
		t.Run(c.name, func(t *testing.T) {
			var err error
			got := allocatedMiB(func() { schedSink, err = schedule.Collect(tor, c.emit) })
			if err != nil {
				t.Fatal(err)
			}
			if got > c.maxMiB {
				t.Fatalf("%s@16x16 allocates %.2f MiB, budget %.2f MiB", c.name, got, c.maxMiB)
			}
		})
	}
}

package collective

import (
	"runtime"
	"testing"

	"torusx/internal/schedule"
	"torusx/internal/topology"
)

// builds are the reduction emitters and the allgather builder, as the
// algorithm registry calls them.
var builds = []struct {
	name  string
	build func(*topology.Torus) (*schedule.Schedule, error)
	// maxMiB pins the bytes one build allocates at 16x16: the measured
	// 0.71, 0.38 and 2.36 MiB (linux/amd64) plus 25%.
	maxMiB float64
}{
	{"reducescatter", collect(EmitReduceScatter), 0.88},
	{"swing", collect(EmitSwing), 0.47},
	{"allgather", AllGatherSchedule, 2.96},
}

var schedSink *schedule.Schedule

// allocatedMiB returns the heap bytes fn allocates, in MiB.
func allocatedMiB(fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
}

// TestCollectiveBuildAllocBudget pins the bytes each build allocates
// at 16x16, so a reduction that starts simulating values again, or
// any build that starts copying scratch it throws away, fails here.
func TestCollectiveBuildAllocBudget(t *testing.T) {
	tor := topology.MustNew(16, 16)
	for _, c := range builds {
		t.Run(c.name, func(t *testing.T) {
			var err error
			got := allocatedMiB(func() { schedSink, err = c.build(tor) })
			if err != nil {
				t.Fatal(err)
			}
			if got > c.maxMiB {
				t.Fatalf("%s@16x16 allocates %.2f MiB, budget %.2f MiB", c.name, got, c.maxMiB)
			}
		})
	}
}

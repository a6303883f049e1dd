package collective

import (
	"runtime"
	"testing"

	"torusx/internal/schedule"
	"torusx/internal/topology"
)

// builds are the collective emitters, as the algorithm registry
// registers them.
var builds = []struct {
	name string
	emit func(*topology.Torus, schedule.Sink) error
	// maxMiB pins the bytes one collected build allocates at 16x16: the
	// measured 0.71, 0.38, 0.71 and 0.046 MiB (linux/amd64) plus 25%.
	maxMiB float64
}{
	{"reducescatter", EmitReduceScatter, 0.88},
	{"swing", EmitSwing, 0.47},
	{"allgather", EmitAllGather, 0.88},
	{"broadcast", func(t *topology.Torus, s schedule.Sink) error { return EmitBroadcast(t, 0, s) }, 0.058},
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
// at 16x16, so a reduction that starts simulating values again, an
// allgather that starts simulating origin lists again, or any build
// that starts copying scratch it throws away, fails here.
func TestCollectiveBuildAllocBudget(t *testing.T) {
	tor := topology.MustNew(16, 16)
	for _, c := range builds {
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

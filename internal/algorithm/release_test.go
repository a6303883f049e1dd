package algorithm

import (
	"runtime"
	"testing"
	"time"

	"torusx/internal/exec"
	"torusx/internal/schedule"
	"torusx/internal/topology"
)

// watchedBuilder wraps a registry builder and closes freed when the
// schedule it built is collected.
type watchedBuilder struct {
	Builder
	freed chan struct{}
}

func (w watchedBuilder) BuildSchedule(f topology.Fabric) (*schedule.Schedule, error) {
	sc, err := w.Builder.BuildSchedule(f)
	if sc != nil {
		runtime.SetFinalizer(sc, func(*schedule.Schedule) { close(w.freed) })
	}
	return sc, err
}

// collected forces collections until done closes and reports whether
// it did within about a second.
func collected(done <-chan struct{}) bool {
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-done:
			return true
		case <-time.After(20 * time.Millisecond):
		}
	}
	return false
}

// TestColdBuildProgramReleasesScheduleAfterLowering: on a cold
// BuildProgram with a disk tier — plan, compile, store, load back —
// nothing on the miss path keeps the schedule reachable once Compile
// has lowered it, so a collection forced right after lowering frees it.
func TestColdBuildProgramReleasesScheduleAfterLowering(t *testing.T) {
	tor := topology.MustNew(8, 8)
	for _, alg := range []string{"direct", "factored", "logtime", "proposed-sim", "ring", "proposed"} {
		t.Run(alg, func(t *testing.T) {
			b, err := For(alg)
			if err != nil {
				t.Fatal(err)
			}
			withColdTier(t)
			wb := watchedBuilder{Builder: b, freed: make(chan struct{})}
			released := false
			defer exec.SetAfterLowerHook(func() { released = collected(wb.freed) })()
			if _, err := BuildProgram(wb, tor, exec.Options{}); err != nil {
				t.Fatal(err)
			}
			if st := cache.Stats(); st.Compiles != 1 || st.Tier2Stores != 1 {
				t.Fatalf("cold BuildProgram: %v, want one compile and one store", st)
			}
			if !released {
				t.Fatalf("%s: the schedule is still reachable after lowering", alg)
			}
		})
	}
}

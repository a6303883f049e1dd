package exec_test

import (
	"runtime"
	"testing"
	"time"

	"torusx/internal/algorithm"
	"torusx/internal/exec"
	"torusx/internal/schedule"
	"torusx/internal/topology"
)

// collected forces collections until done closes — a finalizer
// reporting that the watched schedule was freed — and reports whether
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

// TestCompileReleasesScheduleAfterLowering: once Compile has lowered a
// schedule, nothing it holds keeps the schedule reachable, so a
// collection forced right after lowering frees it — for every
// registry algorithm, replayable or measure-only.
func TestCompileReleasesScheduleAfterLowering(t *testing.T) {
	tor := topology.MustNew(8, 8)
	for _, alg := range algorithm.Supporting(tor) {
		t.Run(alg, func(t *testing.T) {
			b, err := algorithm.For(alg)
			if err != nil {
				t.Fatal(err)
			}
			sc, err := b.BuildSchedule(tor)
			if err != nil {
				t.Fatal(err)
			}
			freed := make(chan struct{})
			runtime.SetFinalizer(sc, func(*schedule.Schedule) { close(freed) })
			released := false
			defer exec.SetAfterLowerHook(func(int) { released = collected(freed) })()
			if _, err := exec.Compile(sc, exec.Options{}); err != nil {
				t.Fatal(err)
			}
			if !released {
				t.Fatalf("%s: the schedule is still reachable after lowering", alg)
			}
		})
	}
}

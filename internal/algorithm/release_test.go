package algorithm

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"torusx/internal/exec"
	"torusx/internal/schedule"
	"torusx/internal/topology"
)

// watchedBuilder wraps a registry builder and watches every step it
// emits: each step's transfers move to an allocation of their own,
// whose finalizer marks the step collected.
type watchedBuilder struct {
	Builder
	mu    sync.Mutex
	freed []bool // emitted step ordinal -> collected (steps without transfers count as collected)
}

func (w *watchedBuilder) EmitSchedule(f topology.Fabric, sink schedule.Sink) error {
	return w.Builder.EmitSchedule(f, watchedSink{w, sink})
}

type watchedSink struct {
	w *watchedBuilder
	schedule.Sink
}

func (s watchedSink) Step(st schedule.Step) error {
	w := s.w
	w.mu.Lock()
	k := len(w.freed)
	w.freed = append(w.freed, len(st.Transfers) == 0)
	w.mu.Unlock()
	if len(st.Transfers) > 0 {
		own := append([]schedule.Transfer(nil), st.Transfers...)
		runtime.SetFinalizer(&own[0], func(*schedule.Transfer) {
			w.mu.Lock()
			w.freed[k] = true
			w.mu.Unlock()
		})
		st.Transfers = own
	}
	return s.Sink.Step(st)
}

// collectedUpTo forces collections until the first steps emitted steps
// are collected and reports whether they were within about a second.
func (w *watchedBuilder) collectedUpTo(steps int) bool {
	for i := 0; i < 50; i++ {
		runtime.GC()
		w.mu.Lock()
		all := len(w.freed) >= steps
		for k := 0; all && k < steps; k++ {
			all = w.freed[k]
		}
		w.mu.Unlock()
		if all {
			return true
		}
		time.Sleep(20 * time.Millisecond)
	}
	return false
}

// TestColdBuildProgramReleasesScheduleAfterLowering: on a cold
// BuildProgram with a disk tier — the builder streaming into the
// compile, then store and load back — nothing on the miss path keeps an
// emitted step reachable once the compile has lowered it, so
// collections forced after each lowered batch free every step emitted
// so far: in production batches, and one step per batch.
func TestColdBuildProgramReleasesScheduleAfterLowering(t *testing.T) {
	tor := topology.MustNew(8, 8)
	for _, oneStep := range []bool{false, true} {
		for _, alg := range []string{"direct", "factored", "logtime", "proposed-sim", "ring", "proposed"} {
			name := alg
			if oneStep {
				name += "/one-step"
			}
			t.Run(name, func(t *testing.T) {
				if oneStep {
					defer exec.StreamOneStep()()
				}
				b, err := For(alg)
				if err != nil {
					t.Fatal(err)
				}
				withColdTier(t)
				wb := &watchedBuilder{Builder: b}
				batches, failed := 0, -1
				defer exec.SetAfterLowerHook(func(steps int) {
					batches++
					if failed < 0 && !wb.collectedUpTo(steps) {
						failed = steps
					}
				})()
				if _, err := BuildProgram(wb, tor, exec.Options{}); err != nil {
					t.Fatal(err)
				}
				if st := cache.Stats(); st.Compiles != 1 || st.Tier2Stores != 1 {
					t.Fatalf("cold BuildProgram: %v, want one compile and one store", st)
				}
				if batches == 0 {
					t.Fatal("the compile lowered no batch")
				}
				if oneStep && batches != len(wb.freed) {
					t.Fatalf("%d steps lowered in %d batches, want one step per batch", len(wb.freed), batches)
				}
				if failed >= 0 {
					t.Fatalf("%s: a step among the first %d is still reachable after they were lowered", alg, failed)
				}
			})
		}
	}
}

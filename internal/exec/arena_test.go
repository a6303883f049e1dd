package exec_test

import (
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"torusx/internal/exec"
	"torusx/internal/obs"
	"torusx/internal/topology"
)

// arenaCreates reads the process-wide exec.arena.creates counter
// through the default registry, as a metrics dump would.
func arenaCreates() int64 {
	return obs.Default().Snapshot().Counters["exec.arena.creates"]
}

// replayOnce runs pg once on a and fails the test on error.
func replayOnce(t *testing.T, pg *exec.Program, a *exec.Arena) {
	t.Helper()
	if _, err := pg.RunArena(a, exec.Options{Serial: true}); err != nil {
		t.Fatal(err)
	}
}

// TestArenaSurvivesGC pins the retention contract: the arena a program
// keeps after a release outlives garbage collection and the return of
// freed memory to the OS, so the next AcquireArena hands back the same
// arena and no arena is rebuilt.
func TestArenaSurvivesGC(t *testing.T) {
	pg := compileDirect8x8(t)
	a := pg.AcquireArena()
	replayOnce(t, pg, a)
	pg.ReleaseArena(a)

	runtime.GC()
	runtime.GC()
	debug.FreeOSMemory()

	before := arenaCreates()
	b := pg.AcquireArena()
	if b != a {
		t.Fatal("AcquireArena after GC built a new arena instead of returning the retained one")
	}
	if got := arenaCreates(); got != before {
		t.Fatalf("exec.arena.creates moved from %d to %d", before, got)
	}
	replayOnce(t, pg, b)
	pg.ReleaseArena(b)
}

// TestArenaPoisonedNotRetained checks that an arena whose run errored
// is never kept: a decoded direct program whose plan misdelivers — node
// 0's delivery descriptor shifted one slot, onto blocks addressed to
// node 1 — fails its replay's delivery check, and the next AcquireArena
// must build a fresh arena rather than hand the poisoned one back.
func TestArenaPoisonedNotRetained(t *testing.T) {
	pg := compileDirect8x8(t)
	enc, err := exec.EncodeWithPlanEdit(pg, 0, func(_ []exec.MoveRec, deliverOff, _ []int32, descs []exec.DescRec) {
		descs[deliverOff[0]].Start++
	})
	if err != nil {
		t.Fatal(err)
	}
	bad, err := exec.DecodeProgram(enc, topology.MustNew(8, 8), 0)
	if err != nil {
		t.Fatalf("the misdelivering plan does not decode: %v", err)
	}
	a := bad.AcquireArena()
	if _, err := bad.RunArena(a, exec.Options{}); err == nil {
		t.Fatal("replay of a misdelivering plan succeeded")
	}
	bad.ReleaseArena(a)

	before := arenaCreates()
	b := bad.AcquireArena()
	if b == a {
		t.Fatal("AcquireArena returned the arena whose run errored")
	}
	if got := arenaCreates(); got != before+1 {
		t.Fatalf("exec.arena.creates moved by %d, want 1 fresh arena", got-before)
	}
	bad.ReleaseArena(b)

	// A healthy arena is retained.
	c := pg.AcquireArena()
	replayOnce(t, pg, c)
	pg.ReleaseArena(c)
	if d := pg.AcquireArena(); d != c {
		t.Fatal("the healthy arena was not retained")
	}
}

// TestArenaOverflowPooled checks the slot fills once: with two arenas
// in flight, the first released is the one the program keeps, and the
// second goes to the pool (which the race detector may randomly drop
// from, so the pool half is checked only without it).
func TestArenaOverflowPooled(t *testing.T) {
	pg := compileDirect8x8(t)
	a := pg.AcquireArena()
	b := pg.AcquireArena()
	if a == b {
		t.Fatal("two in-flight acquires returned the same arena")
	}
	replayOnce(t, pg, a)
	replayOnce(t, pg, b)
	pg.ReleaseArena(a)
	pg.ReleaseArena(b)

	before := arenaCreates()
	if got := pg.AcquireArena(); got != a {
		t.Fatal("the first released arena does not fill the slot")
	}
	if got := arenaCreates(); got != before {
		t.Fatalf("taking the retained arena created %d arenas", got-before)
	}
	if raceEnabled {
		return
	}
	if got := pg.AcquireArena(); got != b {
		t.Fatal("the overflow arena was not pooled")
	}
}

// TestArenaReleasedIsDetached checks that a released arena holds no
// claim on its program: replaying it before re-acquiring is refused,
// and a second release is ignored rather than lending the arena twice.
func TestArenaReleasedIsDetached(t *testing.T) {
	pg := compileDirect8x8(t)
	a := pg.AcquireArena()
	replayOnce(t, pg, a)
	pg.ReleaseArena(a)
	if _, err := pg.RunArena(a, exec.Options{Serial: true}); err == nil {
		t.Fatal("RunArena accepted a released arena")
	}
	pg.ReleaseArena(a)
	if got := pg.AcquireArena(); got != a {
		t.Fatal("the retained arena was lost")
	}
	if got := pg.AcquireArena(); got == a {
		t.Fatal("a double release lent the same arena twice")
	}
}

// TestArenaRetainingProgramCollectable checks that retention does not
// leak: a program holding its arena is still collected once nothing
// else references it, and a finalizer on it fires — the parked arena
// holds no reference back to its program, so no finalizer cycle forms.
func TestArenaRetainingProgramCollectable(t *testing.T) {
	freed := make(chan struct{})
	func() {
		pg := compileDirect8x8(t)
		a := pg.AcquireArena()
		replayOnce(t, pg, a)
		pg.ReleaseArena(a)
		runtime.SetFinalizer(pg, func(*exec.Program) { close(freed) })
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("a program retaining an arena was never collected")
		}
	}
}

// TestArenaConcurrentAcquireRelease hammers one program's slot and pool
// from many goroutines, each replaying and checking node 0's delivery
// before its release. Run under -race in CI.
func TestArenaConcurrentAcquireRelease(t *testing.T) {
	pg := compileDirect8x8(t)
	const goroutines, iters = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				a := pg.AcquireArena()
				res, err := pg.RunArena(a, exec.Options{Serial: (g+i)%2 == 0})
				if err != nil {
					t.Errorf("goroutine %d iter %d: %v", g, i, err)
					return
				}
				if n := res.Buffers[0].Len(); n != 64 {
					t.Errorf("goroutine %d iter %d: node 0 holds %d blocks, want 64", g, i, n)
					return
				}
				pg.ReleaseArena(a)
			}
		}(g)
	}
	wg.Wait()
	before := arenaCreates()
	a := pg.AcquireArena()
	if got := arenaCreates(); got != before {
		t.Fatal("no arena was retained after the concurrent replays")
	}
	pg.ReleaseArena(a)
}

package exec_test

import (
	"testing"

	"torusx/internal/algorithm"
	"torusx/internal/exec"
	"torusx/internal/topology"
)

// TestCompiledReplayAllocs is the allocation regression gate of the
// compile-once/replay-many design: a steady-state replay on a reused
// arena must allocate (nearly) nothing — one Result header, and zero
// per-block, per-transfer or per-link garbage. A regression here
// silently adds that cost to every benchmark sweep, so the bound is
// pinned hard.
func TestCompiledReplayAllocs(t *testing.T) {
	tor := topology.MustNew(8, 8)
	for _, alg := range []string{"proposed", "direct", "ring"} {
		t.Run(alg, func(t *testing.T) {
			b, err := algorithm.For(alg)
			if err != nil {
				t.Fatal(err)
			}
			sc, err := b.BuildSchedule(tor)
			if err != nil {
				t.Fatal(err)
			}
			pg, err := exec.Compile(sc, exec.Options{})
			if err != nil {
				t.Fatal(err)
			}
			arena := pg.NewArena()
			// Warm once: the first run builds the reusable delivery
			// buffers; AllocsPerRun's own warm-up run covers the parallel
			// path's per-arena step partition.
			if _, err := pg.RunArena(arena, exec.Options{Serial: true}); err != nil {
				t.Fatal(err)
			}
			for _, mode := range []struct {
				name string
				opt  exec.Options
				max  float64
			}{
				// No 8x8 step reaches the fan-out threshold, so the
				// parallel rows run every step inline and must build no
				// goroutine, bucket or closure: the serial budget holds.
				{"serial", exec.Options{Serial: true}, 4},
				{"parallel-1", exec.Options{Workers: 1}, 4},
				{"parallel-default", exec.Options{}, 4},
			} {
				opt := mode.opt
				allocs := testing.AllocsPerRun(10, func() {
					if _, err := pg.RunArena(arena, opt); err != nil {
						t.Fatal(err)
					}
				})
				if allocs > mode.max {
					t.Errorf("%s: %v allocs per replay, want <= %v", mode.name, allocs, mode.max)
				}
			}
		})
	}
}

// TestReplayIntoZeroAlloc pins the acceptance bar for user-owned
// destination buffers: on a last-hop-only program (every payload
// transfer delivers directly — the single-phase direct exchange) a
// warm serial ReplayInto performs zero allocations and touches no
// arena scratch.
func TestReplayIntoZeroAlloc(t *testing.T) {
	tor := topology.MustNew(8, 8)
	b, err := algorithm.For("direct")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := b.BuildSchedule(tor)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := exec.Compile(sc, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := pg.Stats(); !st.LastHopOnly {
		t.Fatalf("direct@8x8 is not last-hop-only: %+v", st)
	}
	arena := pg.NewArena()
	dst := make([]int32, pg.DeliverySize())
	if err := pg.ReplayInto(arena, dst, exec.Options{Serial: true}); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := pg.ReplayInto(arena, dst, exec.Options{Serial: true}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm last-hop-only ReplayInto allocates %.0f objects/op, want 0", allocs)
	}
}

// TestCompileAllocs pins the objects one cold Compile of proposed-sim
// at 16x16 allocates: about 112 measured (linux/amd64), budget 250.
// Most of its payloads are listed out of the sender's arrival order, so
// a per-payload allocation in the stamp re-sort shows here first.
func TestCompileAllocs(t *testing.T) {
	const maxAllocs = 250
	b, err := algorithm.For("proposed-sim")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := b.BuildSchedule(topology.MustNew(16, 16))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := exec.Compile(sc, exec.Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > maxAllocs {
		t.Fatalf("Compile(proposed-sim@16x16) allocates %.0f objects, want <= %d", allocs, maxAllocs)
	}
}

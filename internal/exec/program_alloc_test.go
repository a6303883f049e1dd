package exec_test

import (
	"runtime"
	"slices"
	"testing"

	"torusx/internal/algorithm"
	"torusx/internal/block"
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

// decodedProgram compiles alg on tor and returns it round-tripped
// through the codec, as a process loading it from the disk tier holds
// it.
func decodedProgram(t testing.TB, alg string, tor *topology.Torus) *exec.Program {
	t.Helper()
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
	enc, err := exec.EncodeProgram(pg, 0)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := exec.DecodeProgram(enc, tor, 0)
	if err != nil {
		t.Fatal(err)
	}
	return dec
}

// TestFirstReplayAllocs pins what a fresh process pays on its first
// request for a program it decoded: a new arena and its first RunArena
// allocate a constant handful of objects — the arena, its log, the
// delivery buffers carved from one backing, the gather scratch and the
// Result — however many nodes the program has, with no n² staging
// table and no per-node buffer allocation.
func TestFirstReplayAllocs(t *testing.T) {
	const maxAllocs = 8
	tor := topology.MustNew(16, 16)
	for _, alg := range []string{"direct", "proposed-sim", "ring"} {
		t.Run(alg, func(t *testing.T) {
			pg := decodedProgram(t, alg, tor)
			allocs := testing.AllocsPerRun(5, func() {
				if _, err := pg.RunArena(pg.NewArena(), exec.Options{}); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > maxAllocs {
				t.Fatalf("NewArena + first RunArena of decoded %s@16x16: %v allocs, want <= %d", alg, allocs, maxAllocs)
			}
		})
	}
}

// TestFirstReplayBytes bounds the bytes behind TestFirstReplayAllocs'
// handful of objects: a new arena and its first RunArena of a decoded
// 16x16 program allocate the block log (4 bytes a slot), the
// Result.Buffers backing (one 8-byte Block per delivered block) and at
// most firstReplaySlack more — the per-node Buffer headers and
// pointers (48 bytes a node, 12 KiB at 256 nodes), the gather scratch,
// the Arena and the Result, with size-class rounding.
func TestFirstReplayBytes(t *testing.T) {
	const firstReplaySlack = 32 << 10
	tor := topology.MustNew(16, 16)
	for _, alg := range []string{"direct", "proposed-sim", "ring"} {
		t.Run(alg, func(t *testing.T) {
			pg := decodedProgram(t, alg, tor)
			want := 4*exec.LogSlots(pg) + 8*pg.DeliverySize() + firstReplaySlack
			got := bytesPerRun(5, func() {
				if _, err := pg.RunArena(pg.NewArena(), exec.Options{}); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("NewArena + first RunArena of decoded %s@16x16: %d bytes (log %d slots, delivery %d blocks)",
				alg, got, exec.LogSlots(pg), pg.DeliverySize())
			if got > want {
				t.Fatalf("NewArena + first RunArena of decoded %s@16x16: %d bytes, want <= %d", alg, got, want)
			}
		})
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the mean heap bytes
// one call of f allocates, after one warm-up call, at GOMAXPROCS 1.
func bytesPerRun(runs int, f func()) int {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return int((after.TotalAlloc - before.TotalAlloc) / uint64(runs))
}

// TestResultBuffersIsolated: the delivery buffers share one backing,
// but an Add on node v's buffer must not reach node v+1's blocks, and
// the arena's next RunArena must restore both.
func TestResultBuffersIsolated(t *testing.T) {
	tor := topology.MustNew(4, 4)
	pg := decodedProgram(t, "factored", tor)
	a := pg.NewArena()
	res, err := pg.RunArena(a, exec.Options{Serial: true})
	if err != nil {
		t.Fatal(err)
	}
	const v = 5
	want := [2][]block.Block{res.Buffers[v].All(), res.Buffers[v+1].All()}
	res.Buffers[v].Add(block.Block{Origin: 0, Dest: 0}, block.Block{Origin: 1, Dest: 1})
	if got := res.Buffers[v+1].View(); !slices.Equal(got, want[1]) {
		t.Fatalf("Add on node %d's buffer changed node %d's blocks: %v, want %v", v, v+1, got, want[1])
	}
	res, err = pg.RunArena(a, exec.Options{Serial: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		if got := res.Buffers[v+i].View(); !slices.Equal(got, w) {
			t.Fatalf("node %d after the next RunArena: %v, want %v", v+i, got, w)
		}
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

// compileBudgetMiB pins the bytes one cold Compile of each registry
// cell at 16x16 allocates at GOMAXPROCS 2, with its scratch pools
// empty: the measured value (linux/amd64, Go 1.24) plus 25%.
// TestCompileAllocs pins only the object count; this pins the bytes a
// cold process pays for. Compile copies the payload ids, because its
// caller owns the schedule, so these include the copy a streamed
// compile saves by adopting them (algorithm's missPathBudgetMiB).
var compileBudgetMiB = map[string]float64{
	"allgather":    0.07, // 0.05 measured
	"broadcast":    0.04, // 0.03
	"direct":       5.6,  // 4.46
	"factored":     3.4,  // 2.66
	"logtime":      3.4,  // 2.66
	"proposed":     0.08, // 0.06
	"proposed-sim": 3.9,  // 3.05
	"ring":         7.7,  // 6.09
	"swing":        0.08, // 0.06
}

// TestCompileAllocBudget measures each cell's Compile after two
// collections, which empty the sync.Pool scratch, so every table the
// compile needs is allocated fresh as in a cold process. The worker
// count is fixed, because every compile worker allocates its own
// scratch.
func TestCompileAllocBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	tor := topology.MustNew(16, 16)
	for _, alg := range algorithm.Supporting(tor) {
		t.Run(alg, func(t *testing.T) {
			budget, ok := compileBudgetMiB[alg]
			if !ok {
				t.Fatalf("no compile budget for %s", alg)
			}
			b, err := algorithm.For(alg)
			if err != nil {
				t.Fatal(err)
			}
			sc, err := b.BuildSchedule(tor)
			if err != nil {
				t.Fatal(err)
			}
			runtime.GC()
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err = exec.Compile(sc, exec.Options{})
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			got := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
			t.Logf("Compile(%s@16x16): %.2f MiB", alg, got)
			if got > budget {
				t.Fatalf("Compile(%s@16x16) allocates %.2f MiB, budget %.2f MiB", alg, got, budget)
			}
		})
	}
}

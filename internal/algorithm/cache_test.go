package algorithm_test

import (
	"sync"
	"testing"

	"torusx/internal/algorithm"
	"torusx/internal/exec"
	"torusx/internal/topology"
	"torusx/internal/traffic"
)

func builderFor(t *testing.T, name string) algorithm.Builder {
	t.Helper()
	b, err := algorithm.For(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBuildProgramWarmCache pins the serving-layer contract: a second
// BuildProgram for an already-compiled (algorithm, shape) performs no
// compile (same *Program back) and stays within 2 allocations.
func TestBuildProgramWarmCache(t *testing.T) {
	tor := topology.MustNew(8, 8)
	b := builderFor(t, "direct")
	p1, err := algorithm.BuildProgram(b, tor, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := algorithm.CacheStats()
	p2, err := algorithm.BuildProgram(b, tor, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("warm BuildProgram returned a different *Program")
	}
	after := algorithm.CacheStats()
	if d := after.Compiles - before.Compiles; d != 0 {
		t.Errorf("warm BuildProgram ran %d compiles, want 0", d)
	}
	if d := after.Hits - before.Hits; d != 1 {
		t.Errorf("warm BuildProgram recorded %d hits, want 1", d)
	}

	allocs := testing.AllocsPerRun(100, func() {
		if _, err := algorithm.BuildProgram(b, tor, exec.Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("warm BuildProgram allocs = %v, want ≤ 2", allocs)
	}
}

// TestBuildProgramSingleflight: 64 concurrent requests for one
// uncompiled (algorithm, shape) trigger exactly one Compile.
func TestBuildProgramSingleflight(t *testing.T) {
	// A shape no other test in this process compiles with "ring", so the
	// cold-start delta below is this test's own.
	tor := topology.MustNew(4, 12)
	b := builderFor(t, "ring")
	before := algorithm.CacheStats()

	const goroutines = 64
	progs := make([]*exec.Program, goroutines)
	var wg sync.WaitGroup
	var start sync.WaitGroup
	start.Add(1)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start.Wait()
			p, err := algorithm.BuildProgram(b, tor, exec.Options{})
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
				return
			}
			progs[i] = p
		}(i)
	}
	start.Done()
	wg.Wait()

	after := algorithm.CacheStats()
	if d := after.Compiles - before.Compiles; d != 1 {
		t.Errorf("%d concurrent BuildProgram calls ran %d compiles, want 1", goroutines, d)
	}
	for i := 1; i < goroutines; i++ {
		if progs[i] != progs[0] {
			t.Fatalf("goroutine %d received a different program", i)
		}
	}
}

// TestBuildProgramDistinctOptionsDistinctPrograms: compile-relevant
// option changes must not alias in the cache.
func TestBuildProgramDistinctOptionsDistinctPrograms(t *testing.T) {
	tor := topology.MustNew(8, 8)
	b := builderFor(t, "factored")
	p1, err := algorithm.BuildProgram(b, tor, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := algorithm.BuildProgram(b, tor, exec.Options{Traffic: traffic.Full(tor.Nodes()).Blocks()})
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Error("a declared traffic matrix aliased the implicit one in the cache")
	}
	// Runtime-only options share the compiled program.
	p3, err := algorithm.BuildProgram(b, tor, exec.Options{Serial: true, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if p3 != p1 {
		t.Error("runtime-only options split the cache")
	}
}

// TestPooledArenaStress hammers one cached program from many
// goroutines through the Acquire/Run/Release arena cycle — the
// multi-tenant serving pattern — and verifies every replay's delivery
// independently. Run under -race in CI.
func TestPooledArenaStress(t *testing.T) {
	tor := topology.MustNew(8, 8)
	b := builderFor(t, "direct")
	p, err := algorithm.BuildProgram(b, tor, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := p.Run(exec.Options{})
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 16
	const iters = 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				a := p.AcquireArena()
				opt := exec.Options{Serial: (g+i)%2 == 0}
				res, err := p.RunArena(a, opt)
				if err != nil {
					t.Errorf("goroutine %d iter %d: %v", g, i, err)
					return
				}
				if res.Measure != ref.Measure {
					t.Errorf("goroutine %d iter %d: measure %+v != %+v", g, i, res.Measure, ref.Measure)
					return
				}
				// Spot-check delivery before the buffers are recycled:
				// node 0 must hold exactly its column of the exchange.
				if n := res.Buffers[0].Len(); n != tor.Nodes() {
					t.Errorf("goroutine %d iter %d: node 0 holds %d blocks, want %d", g, i, n, tor.Nodes())
					return
				}
				p.ReleaseArena(a)
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkBuildProgramWarm measures the serving layer's warm path:
// what one request pays for an already-compiled (algorithm, shape).
func BenchmarkBuildProgramWarm(b *testing.B) {
	tor := topology.MustNew(8, 8)
	bd, err := algorithm.For("direct")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := algorithm.BuildProgram(bd, tor, exec.Options{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := algorithm.BuildProgram(bd, tor, exec.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

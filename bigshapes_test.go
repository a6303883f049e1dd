//go:build bigshapes

package torusx

import (
	"testing"
	"time"

	"torusx/internal/algorithm"
)

// TestAllToAll32x32MemoryHit: with no disk tier, a 32x32 program weighs
// its replay core, so the memory tier keeps it and a second AllToAll on
// 32x32 is a hit — no compile — plus a replay, well under the cost of
// the compile the first call paid. Run with:
//
//	go test -tags bigshapes -run TestAllToAll32x32MemoryHit .
func TestAllToAll32x32MemoryHit(t *testing.T) {
	tor, err := NewTorus(32, 32)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AllToAll(tor); err != nil {
		t.Fatal(err)
	}
	before := algorithm.CacheStats()
	start := time.Now()
	if _, err := AllToAll(tor); err != nil {
		t.Fatal(err)
	}
	took := time.Since(start)
	after := algorithm.CacheStats()
	t.Logf("second AllToAll on 32x32: %v", took)
	if after.Compiles != before.Compiles || after.Hits != before.Hits+1 {
		t.Fatalf("second AllToAll on 32x32: %d compiles, %d hits; want a memory-tier hit", after.Compiles-before.Compiles, after.Hits-before.Hits)
	}
	if took > 50*time.Millisecond {
		t.Fatalf("second AllToAll on 32x32 took %v, want under 50ms", took)
	}
}

// TestScheduleForAtScale: ScheduleFor builds and checks the proposed
// schedule at 65,536 nodes (16^4) and on the 100x96 torus, and the
// checked schedule costs what Table 1's closed form predicts. Run
// with:
//
//	go test -tags bigshapes -run TestScheduleForAtScale .
func TestScheduleForAtScale(t *testing.T) {
	for _, dims := range [][]int{{16, 16, 16, 16}, {100, 96}} {
		tor, err := NewTorus(dims...)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := ScheduleFor(tor)
		if err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
		want := Predict(dims...)
		if sc.NumSteps() != want.Steps || sc.SumMaxBlocks() != want.Blocks || sc.SumMaxHops() != want.Hops {
			t.Fatalf("%v: schedule costs %d/%d/%d, want %d/%d/%d", dims,
				sc.NumSteps(), sc.SumMaxBlocks(), sc.SumMaxHops(), want.Steps, want.Blocks, want.Hops)
		}
	}
}

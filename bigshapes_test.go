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

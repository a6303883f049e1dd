package exec

import (
	"fmt"
	"testing"
	"unsafe"

	"torusx/internal/block"
	"torusx/internal/topology"
)

func TestFullTrafficContent(t *testing.T) {
	tor := topology.MustNew(2, 2)
	got := FullTraffic(tor)
	if len(got) != 16 {
		t.Fatalf("FullTraffic(2x2) has %d blocks, want 16", len(got))
	}
	seen := map[block.Block]bool{}
	for _, b := range got {
		if seen[b] {
			t.Fatalf("duplicate block %v", b)
		}
		seen[b] = true
	}
	// Returned copy is the caller's to mutate: the cached matrix must
	// not change underneath later callers.
	got[0] = block.Block{Origin: 3, Dest: 3}
	again := FullTraffic(tor)
	if again[0] != (block.Block{Origin: 0, Dest: 0}) {
		t.Fatal("mutating FullTraffic's result corrupted the cache")
	}
}

func TestFullTrafficLRUEviction(t *testing.T) {
	// A private small cache: budget for exactly two 4-node matrices
	// (16 blocks of unsafe.Sizeof(block.Block{}) bytes each).
	size := int64(unsafe.Sizeof(block.Block{}))
	c := newFullTrafficLRU(2 * 16 * size)
	mat := func(tag int) []block.Block {
		out := make([]block.Block, 16)
		for i := range out {
			out[i] = block.Block{Origin: topology.NodeID(tag), Dest: topology.NodeID(i)}
		}
		return out
	}
	c.put("a", mat(1))
	c.put("b", mat(2))
	if _, ok := c.get("a"); !ok {
		t.Fatal("a evicted while under budget")
	}
	// a is now most recent; inserting c must evict b (LRU), not a.
	c.put("c", mat(3))
	if _, ok := c.get("b"); ok {
		t.Fatal("b survived past the byte budget")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("LRU evicted the recently-used entry")
	}
	if _, ok := c.get("c"); !ok {
		t.Fatal("newest entry missing")
	}
	if c.bytes > c.maxBytes {
		t.Fatalf("cache over budget: %d bytes", c.bytes)
	}
	var held int64
	for _, key := range []string{"a", "c"} {
		blocks, _ := c.get(key)
		held += int64(len(blocks)) * size
	}
	if c.bytes != held {
		t.Fatalf("cache counts %d bytes, its entries hold len × Sizeof = %d", c.bytes, held)
	}
	if c.evictions == 0 {
		t.Fatal("eviction counter never moved")
	}
}

func TestFullTrafficLRUOversizedEntry(t *testing.T) {
	c := newFullTrafficLRU(100)
	c.put("small", make([]block.Block, 2))
	c.put("huge", make([]block.Block, 1000)) // > budget: pass through uncached
	if _, ok := c.get("huge"); ok {
		t.Fatal("oversized entry was cached")
	}
	if _, ok := c.get("small"); !ok {
		t.Fatal("oversized insert evicted the resident entries")
	}
}

func TestFullTrafficCacheBounded(t *testing.T) {
	// Sweep enough distinct shapes that an unbounded cache would hold
	// them all; the byte bound must hold and evictions must occur, while
	// every returned matrix stays correct (eviction = rebuild, never
	// corruption).
	// n=28 is the largest shape here (28⁴ ≈ 614k blocks ≈ 4.7 MiB);
	// the whole sweep sums past the 8 MiB budget without any single
	// entry exceeding it, so real LRU eviction — not the oversized
	// pass-through — is what keeps the bound.
	before := FullTrafficCacheStats()
	for round := 0; round < 2; round++ {
		for n := 4; n <= 28; n += 4 {
			tor := topology.MustNew(n, n)
			m := fullTrafficCached(tor)
			if len(m) != n*n*n*n {
				t.Fatalf("%dx%d matrix has %d blocks, want %d", n, n, len(m), n*n*n*n)
			}
		}
	}
	after := FullTrafficCacheStats()
	if after.Bytes > fullTrafficMaxBytes {
		t.Fatalf("cache over budget: %d > %d bytes", after.Bytes, fullTrafficMaxBytes)
	}
	if after.Evictions == before.Evictions {
		t.Fatalf("sweep of large shapes evicted nothing (bytes=%d)", after.Bytes)
	}
	if after.Misses == before.Misses {
		t.Fatal("miss counter never moved")
	}
}

func TestFullTrafficLRUConcurrent(t *testing.T) {
	// Concurrent mixed-shape lookups: exercised under -race in CI.
	tor4, tor6 := topology.MustNew(4, 4), topology.MustNew(6, 6)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 50; i++ {
				f := topology.Fabric(tor4)
				if (g+i)%2 == 0 {
					f = tor6
				}
				m := fullTrafficCached(f)
				want := f.Nodes() * f.Nodes()
				if len(m) != want {
					done <- fmt.Errorf("goroutine %d: %d blocks, want %d", g, len(m), want)
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

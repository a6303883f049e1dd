package exec

import (
	"container/list"
	"sync"
	"unsafe"

	"torusx/internal/block"
	"torusx/internal/topology"
)

// The all-to-all traffic matrix, built once per fabric and shared by
// every executor path. This is the single implementation behind both
// the exported FullTraffic and the internal default-traffic lookups of
// the serial, parallel and compiled paths.
//
// The cache is byte-bounded: a sweep over many shapes (aapebench
// grids, the fuzzers, a long-lived embedding service) must not retain
// one n²-block slice per fabric forever — a 64x64 torus alone pins
// 128 MiB: 16 M blocks of 8 bytes, two 4-byte node ids each.
// Least-recently-used matrices are evicted once the total backing
// bytes exceed fullTrafficMaxBytes; an evicted matrix is simply
// rebuilt on next use, and slices handed out earlier stay valid (the
// cache drops its reference, it never frees).

// fullTrafficMaxBytes bounds the summed backing bytes of cached
// all-to-all matrices: 8 MiB is 1 M blocks, the matrix of any shape up
// to 1024 nodes (a 32x32 torus).
const fullTrafficMaxBytes = 8 << 20

// blockBytes is the per-block eviction weight.
const blockBytes = int64(unsafe.Sizeof(block.Block{}))

// fullTrafficLRU is a byte-bounded LRU keyed by fabric fingerprint.
type fullTrafficLRU struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	order    *list.List // front = most recent; values are *fullTrafficEntry
	entries  map[string]*list.Element

	hits, misses, evictions int64
}

type fullTrafficEntry struct {
	key    string
	blocks []block.Block
}

var fullTrafficCache = newFullTrafficLRU(fullTrafficMaxBytes)

func newFullTrafficLRU(maxBytes int64) *fullTrafficLRU {
	return &fullTrafficLRU{
		maxBytes: maxBytes,
		order:    list.New(),
		entries:  map[string]*list.Element{},
	}
}

func (c *fullTrafficLRU) get(key string) ([]block.Block, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*fullTrafficEntry).blocks, true
}

func (c *fullTrafficLRU) put(key string, blocks []block.Block) {
	size := int64(len(blocks)) * blockBytes
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		// A racing builder got here first; keep the incumbent.
		c.order.MoveToFront(el)
		return
	}
	if size > c.maxBytes {
		// Larger than the whole budget: serve it uncached rather than
		// evict everything for a one-shot tenant.
		return
	}
	c.entries[key] = c.order.PushFront(&fullTrafficEntry{key: key, blocks: blocks})
	c.bytes += size
	for c.bytes > c.maxBytes {
		back := c.order.Back()
		if back == nil {
			break
		}
		e := back.Value.(*fullTrafficEntry)
		c.order.Remove(back)
		delete(c.entries, e.key)
		c.bytes -= int64(len(e.blocks)) * blockBytes
		c.evictions++
	}
}

// TrafficCacheStats is a snapshot of the full-traffic cache counters,
// exposed for telemetry and the eviction tests.
type TrafficCacheStats struct {
	Entries   int
	Bytes     int64
	Hits      int64
	Misses    int64
	Evictions int64
}

// FullTrafficCacheStats snapshots the process-wide full-traffic cache.
func FullTrafficCacheStats() TrafficCacheStats {
	c := fullTrafficCache
	c.mu.Lock()
	defer c.mu.Unlock()
	return TrafficCacheStats{
		Entries:   len(c.entries),
		Bytes:     c.bytes,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}

// fullTrafficCached returns the shared, immutable all-to-all matrix on
// f: one block from every node to every node, self included. Callers
// must not mutate the result. The cache key is the fabric fingerprint,
// so distinct fabrics with equal node counts (e.g. an 8-node torus and
// a D3(2,2) dragonfly) never share an entry by accident — though their
// matrices would coincide, the keying matches the progcache convention.
func fullTrafficCached(f topology.Fabric) []block.Block {
	key := f.Fingerprint()
	if cached, ok := fullTrafficCache.get(key); ok {
		return cached
	}
	n := f.Nodes()
	traffic := make([]block.Block, 0, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			traffic = append(traffic, block.Block{Origin: topology.NodeID(i), Dest: topology.NodeID(j)})
		}
	}
	fullTrafficCache.put(key, traffic)
	return traffic
}

// FullTraffic returns the all-to-all traffic matrix on f: one block
// from every node to every node (self included, matching the paper's
// data-array model where B[i,i] stays in place). The matrix is built
// once per fabric and cached; FullTraffic returns a fresh copy the
// caller may mutate, while the executor paths share the cached
// immutable slice directly.
func FullTraffic(f topology.Fabric) []block.Block {
	return append([]block.Block(nil), fullTrafficCached(f)...)
}

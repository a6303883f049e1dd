// Package progcache is the compiled-program serving layer: a
// concurrent, sharded, byte-bounded LRU cache of exec.Program keyed by
// (algorithm, torus shape, compile-options fingerprint), with
// singleflight deduplication so N concurrent requests for the same
// shape trigger exactly one compile. The ROADMAP's serving scenario —
// many tenants asking for exchange plans across many shapes — pays
// exec.Compile once per (algorithm, shape) per process instead of once
// per request: a warm hit is a couple of map lookups, and a compiled
// Program is immutable and safe to share, so every requester replays
// the same cached plan through its own Arena.
//
// Memory contract: the cache bounds program bytes (exec.Program's
// SizeBytes), not arenas. Each replayed program that is still reachable
// — cached here or held by a caller — also pins the one arena it
// retains across garbage collections (see exec.Arena); evicting a
// program no caller holds frees both.
package progcache

import (
	"fmt"
	"hash/maphash"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"torusx/internal/block"
	"torusx/internal/exec"
	"torusx/internal/obs"
	"torusx/internal/schedule"
	"torusx/internal/topology"
)

// DefaultMaxBytes is the default cache budget: generous against the
// compiled footprint of the shapes the tools sweep (an 8x8 direct
// program is ~1 MiB; structural programs are a few KiB), small against
// a serving host.
const DefaultMaxBytes = 256 << 20

// numShards spreads keys over independently locked LRUs so concurrent
// tenants requesting different shapes never serialize on one mutex.
const numShards = 16

// Cache is a concurrent sharded LRU of compiled programs, bounded in
// SizeBytes with singleflight compile deduplication. The zero value is
// not usable; construct with New.
type Cache struct {
	shards     [numShards]shard
	shardBytes int64
	seed       maphash.Seed

	// tier2, loadHist and storeHist are set once (SetTier2,
	// RegisterMetrics) before the cache serves requests.
	tier2     *DiskStore
	loadHist  *obs.Histogram
	storeHist *obs.Histogram

	hits        atomic.Int64
	misses      atomic.Int64
	coalesced   atomic.Int64
	compiles    atomic.Int64
	evictions   atomic.Int64
	evictDisk   atomic.Int64
	oversize    atomic.Int64
	tier2Hits   atomic.Int64
	tier2Misses atomic.Int64
	tier2Stores atomic.Int64
}

type shard struct {
	mu       sync.Mutex
	entries  map[string]*entry
	inflight map[string]*call
	bytes    int64
	// Intrusive LRU list: head.next is most recent, head.prev least.
	head entry
}

type entry struct {
	key        string
	prog       *exec.Program
	size       int64
	onDisk     bool // a tier-2 copy exists; eviction loses no work
	prev, next *entry
}

// call is one in-flight compile other requesters wait on.
type call struct {
	wg   sync.WaitGroup
	prog *exec.Program
	err  error
}

// Stats is a point-in-time snapshot of the cache's counters.
type Stats struct {
	// Hits counts requests served from the LRU; Misses counts requests
	// that started a compile; Coalesced counts requests that waited on
	// another request's in-flight compile (singleflight).
	Hits, Misses, Coalesced int64
	// Compiles counts compile invocations (== Misses; kept separate so
	// a drift would surface a dedup bug).
	Compiles int64
	// Evictions counts entries dropped to respect the byte budget;
	// EvictionsDiskBacked counts the subset whose program had a tier-2
	// copy at eviction time — those cost a sub-millisecond reload, the
	// remainder cost a full recompile. Oversize counts compiled
	// programs too large to cache at all.
	Evictions, EvictionsDiskBacked, Oversize int64
	// Tier2Hits counts LRU misses served by the disk tier; Tier2Misses
	// counts LRU misses that fell through to a compile with a disk tier
	// configured; Tier2Stores counts programs written back to disk.
	Tier2Hits, Tier2Misses, Tier2Stores int64
	// Entries and Bytes describe the current cache contents.
	Entries int
	Bytes   int64
}

func (s Stats) String() string {
	return fmt.Sprintf("hits %d  misses %d  coalesced %d  compiles %d  evictions %d (%d disk-backed)  oversize %d  tier2 %d/%d (+%d stored)  entries %d  bytes %d",
		s.Hits, s.Misses, s.Coalesced, s.Compiles, s.Evictions, s.EvictionsDiskBacked, s.Oversize, s.Tier2Hits, s.Tier2Hits+s.Tier2Misses, s.Tier2Stores, s.Entries, s.Bytes)
}

// New returns a cache bounded to maxBytes of compiled programs
// (exec.Program.SizeBytes), spread over the internal shards.
// maxBytes <= 0 selects DefaultMaxBytes.
func New(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	c := &Cache{
		shardBytes: (maxBytes + numShards - 1) / numShards,
		seed:       maphash.MakeSeed(),
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.entries = make(map[string]*entry)
		s.inflight = make(map[string]*call)
		s.head.next, s.head.prev = &s.head, &s.head
	}
	return c
}

// Key builds the canonical cache key for compiling algorithm alg on f
// with the given options fingerprint (see Fingerprint). The fabric
// contributes its Fingerprint — "torus:8x8", "d3:2x4" — so identical
// dimensions on different fabric kinds can never collide. One
// allocation (the returned string), so warm lookups stay within the
// serving layer's per-request allocation budget.
func Key(alg string, f topology.Fabric, fp uint64) string {
	var buf [64]byte
	b := append(buf[:0], alg...)
	b = append(b, '@')
	b = append(b, f.Fingerprint()...)
	if fp != 0 {
		b = append(b, '#')
		b = strconv.AppendUint(b, fp, 16)
	}
	return string(b)
}

// Fingerprint reduces the compile-relevant exec.Options to a key
// component. Only the field exec.Compile consumes participates: the
// declared traffic matrix (order-insensitively hashed, so two
// permutations of one matrix share a program). Run-time choices —
// Serial, Workers, Telemetry — never split the cache. The nil
// (all-to-all) matrix fingerprints to 0, distinct from any explicit
// matrix, including an explicit empty one.
func Fingerprint(opt exec.Options) uint64 {
	var fp uint64
	if opt.Traffic != nil {
		h := uint64(1099511628211)
		for _, b := range opt.Traffic {
			// FNV-style per-block hash, combined commutatively so the
			// fingerprint is order-insensitive (exec rejects duplicate
			// blocks, so addition cannot alias distinct matrices by
			// reordering).
			h += blockHash(b)
		}
		fp |= h<<1 | 2
	}
	return fp
}

func blockHash(b block.Block) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	h = (h ^ uint64(b.Origin)) * prime
	h = (h ^ uint64(b.Dest)) * prime
	return h
}

// SetTier2 attaches a disk store as the cache's second tier. Call once
// at setup, before the cache serves requests. Requests routed through
// GetOrCompileTiered then check the store between an LRU miss and a
// compile, and write every fresh compile back, so the next process
// pointed at the same directory skips the compile entirely.
func (c *Cache) SetTier2(t2 *DiskStore) { c.tier2 = t2 }

// Tier2 returns the attached disk store, if any.
func (c *Cache) Tier2() *DiskStore { return c.tier2 }

// GetOrCompileTiered returns the cached program for key, or runs
// compile to produce it, and is the cache's one entry point.
//
//   - One compile per key: concurrent callers with the same key share
//     one compile. Exactly one runs, the rest wait and receive its
//     result.
//   - Errors are returned to every waiter and never cached, so a
//     transient failure does not poison the key; a compile that panics
//     is reported the same way, as an error.
//   - A program larger than a shard's byte budget is served uncached.
//
// f and optFP are the decode context — the fabric and options
// fingerprint the key was built from — so an LRU miss can be served
// from the tier-2 disk store (recorded as a "tier2-load" stage) before
// falling back to compile, and a fresh compile is written back and
// served loaded from the file it wrote ("tier2-store"). The
// singleflight covers both tiers: concurrent requesters of one key
// share a single disk probe and at most one compile. Without an
// attached store, or with a nil fabric, only the memory tier serves.
//
// req records the request's wall-clock walk through the cache: a
// "cache-lookup" stage span over the shard probe, and — when the
// request loses the singleflight race and waits on another caller's
// compile — a "singleflight-wait" span over the wait. The compile
// callback itself is *not* wrapped: the caller owns its decomposition
// (internal/algorithm splits it into "plan"/"prune"/"compile" stages).
// A nil req records nothing and takes the identical code path — warm
// hits stay within the serving layer's pinned allocation budget.
//
// A non-nil source — the schedule-building half of compile, untraced —
// is recorded as the schedule source (exec.Program.SetSource) of the
// program served on a miss, compiled or loaded, before any requester
// sees it.
func (c *Cache) GetOrCompileTiered(key string, f topology.Fabric, optFP uint64, req *obs.Request,
	source func() (*schedule.Schedule, error), compile func() (*exec.Program, error)) (prog *exec.Program, err error) {
	sp := req.Stage(obs.StageCacheLookup)
	s := &c.shards[c.shardOf(key)]
	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		s.moveToFront(e)
		s.mu.Unlock()
		sp.End()
		c.hits.Add(1)
		return e.prog, nil
	}
	if cl, ok := s.inflight[key]; ok {
		s.mu.Unlock()
		sp.End()
		c.coalesced.Add(1)
		wsp := req.Stage(obs.StageSingleflightWait)
		cl.wg.Wait()
		wsp.End()
		return cl.prog, cl.err
	}
	cl := &call{}
	cl.wg.Add(1)
	s.inflight[key] = cl
	s.mu.Unlock()
	sp.End()
	c.misses.Add(1)

	// The in-flight call completes however this request ends: a panic in
	// compile (or in the disk tier) becomes this request's error and
	// every waiter's, and — like any error — is never cached, so the key
	// recompiles on its next request instead of wedging its waiters.
	onDisk := false
	defer func() {
		if r := recover(); r != nil {
			prog, err = nil, fmt.Errorf("progcache: compile of %s panicked: %v", key, r)
		}
		cl.prog, cl.err = prog, err
		s.mu.Lock()
		delete(s.inflight, key)
		if err == nil {
			c.insertLocked(s, key, prog, onDisk)
		}
		s.mu.Unlock()
		cl.wg.Done()
	}()
	if c.tier2 != nil && f != nil {
		lsp := req.Stage(obs.StageTier2Load)
		start := time.Now()
		pg, ok := c.tier2.Load(key, f, optFP)
		if c.loadHist != nil {
			c.loadHist.ObserveSince(start)
		}
		lsp.End()
		if ok {
			c.tier2Hits.Add(1)
			prog, onDisk = pg, true
		} else {
			c.tier2Misses.Add(1)
		}
	}
	if prog == nil {
		c.compiles.Add(1)
		prog, err = compile()
		if err == nil && c.tier2 != nil && f != nil {
			ssp := req.Stage(obs.StageTier2Store)
			start := time.Now()
			if c.tier2.Store(key, prog, optFP) == nil {
				c.tier2Stores.Add(1)
				// Serve the file just written, as every later tier-2 hit
				// will. A file that does not load back (see
				// exec.DecodeProgram's limits) leaves the compile cached.
				if pg, ok := c.tier2.Load(key, f, optFP); ok {
					prog, onDisk = pg, true
				}
			}
			if c.storeHist != nil {
				c.storeHist.ObserveSince(start)
			}
			ssp.End()
		}
	}
	if prog != nil && source != nil {
		prog.SetSource(source)
	}
	return prog, err
}

// Get returns the cached program for key without compiling.
func (c *Cache) Get(key string) (*exec.Program, bool) {
	s := &c.shards[c.shardOf(key)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[key]; ok {
		s.moveToFront(e)
		c.hits.Add(1)
		return e.prog, true
	}
	return nil, false
}

// insertLocked files prog under key and evicts from the shard's LRU
// tail until the shard fits its byte budget. Caller holds s.mu.
func (c *Cache) insertLocked(s *shard, key string, prog *exec.Program, onDisk bool) {
	size := prog.SizeBytes()
	if size > c.shardBytes {
		c.oversize.Add(1)
		return
	}
	if old, ok := s.entries[key]; ok {
		// Lost a race with another non-coalesced insert of the same key
		// (possible across an eviction); keep the incumbent.
		_ = old
		return
	}
	e := &entry{key: key, prog: prog, size: size, onDisk: onDisk}
	s.entries[key] = e
	s.pushFront(e)
	s.bytes += size
	for s.bytes > c.shardBytes {
		lru := s.head.prev
		if lru == &s.head || lru == e {
			break
		}
		s.remove(lru)
		delete(s.entries, lru.key)
		s.bytes -= lru.size
		c.evictions.Add(1)
		if lru.onDisk {
			c.evictDisk.Add(1)
		}
	}
}

// Stats snapshots the counters and sums the per-shard contents.
func (c *Cache) Stats() Stats {
	st := Stats{
		Hits:                c.hits.Load(),
		Misses:              c.misses.Load(),
		Coalesced:           c.coalesced.Load(),
		Compiles:            c.compiles.Load(),
		Evictions:           c.evictions.Load(),
		EvictionsDiskBacked: c.evictDisk.Load(),
		Oversize:            c.oversize.Load(),
		Tier2Hits:           c.tier2Hits.Load(),
		Tier2Misses:         c.tier2Misses.Load(),
		Tier2Stores:         c.tier2Stores.Load(),
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Entries += len(s.entries)
		st.Bytes += s.bytes
		s.mu.Unlock()
	}
	return st
}

// RegisterMetrics exports the cache's counters and live occupancy on
// reg under prefix ("progcache" → "progcache.hits", ...): the atomic
// counters as pull-based counters and entries/bytes as gauges reading
// a fresh per-scrape Stats snapshot. This replaces ad-hoc snapshot
// printing as the uniform way the serving layer is observed; call once
// per (registry, cache) pair — re-registering replaces the hooks.
func (c *Cache) RegisterMetrics(reg *obs.Registry, prefix string) {
	reg.CounterFunc(prefix+".hits", c.hits.Load)
	reg.CounterFunc(prefix+".misses", c.misses.Load)
	reg.CounterFunc(prefix+".coalesced", c.coalesced.Load)
	reg.CounterFunc(prefix+".compiles", c.compiles.Load)
	reg.CounterFunc(prefix+".evictions", c.evictions.Load)
	reg.CounterFunc(prefix+".evictions.diskbacked", c.evictDisk.Load)
	reg.CounterFunc(prefix+".oversize", c.oversize.Load)
	reg.CounterFunc(prefix+".tier2.hit", c.tier2Hits.Load)
	reg.CounterFunc(prefix+".tier2.miss", c.tier2Misses.Load)
	reg.CounterFunc(prefix+".tier2.store", c.tier2Stores.Load)
	c.loadHist = reg.Histogram(prefix + ".tier2.load.ns")
	c.storeHist = reg.Histogram(prefix + ".tier2.store.ns")
	reg.GaugeFunc(prefix+".entries", func() float64 { return float64(c.Stats().Entries) })
	reg.GaugeFunc(prefix+".bytes", func() float64 { return float64(c.Stats().Bytes) })
}

// Keys lists the cached keys, sorted, for tests and introspection.
func (c *Cache) Keys() []string {
	var keys []string
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for k := range s.entries {
			keys = append(keys, k)
		}
		s.mu.Unlock()
	}
	sort.Strings(keys)
	return keys
}

func (c *Cache) shardOf(key string) uint64 {
	return maphash.String(c.seed, key) % numShards
}

func (s *shard) pushFront(e *entry) {
	e.prev, e.next = &s.head, s.head.next
	e.prev.next, e.next.prev = e, e
}

func (s *shard) remove(e *entry) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
}

func (s *shard) moveToFront(e *entry) {
	s.remove(e)
	s.pushFront(e)
}

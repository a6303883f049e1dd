package progcache_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"torusx/internal/baseline"
	"torusx/internal/block"
	"torusx/internal/exec"
	"torusx/internal/obs"
	"torusx/internal/progcache"
	"torusx/internal/schedule"
	"torusx/internal/topology"
)

// compileDirect compiles the direct-exchange schedule on tor — a real
// program with a replay plan, so SizeBytes is meaningful.
func compileDirect(tor *topology.Torus) (*exec.Program, error) {
	return compileEmitted(tor, baseline.EmitDirect)
}

// getOrCompile is c.GetOrCompileTiered with no decode context and no
// schedule source: the memory tier alone.
func getOrCompile(c *progcache.Cache, key string, req *obs.Request, compile func() (*exec.Program, error)) (*exec.Program, error) {
	return c.GetOrCompileTiered(key, nil, 0, req, nil, compile)
}

// compileRing compiles the ring-exchange schedule on tor.
func compileRing(tor *topology.Torus) (*exec.Program, error) {
	return compileEmitted(tor, baseline.EmitRing)
}

// compileEmitted compiles emit's collected schedule on tor.
func compileEmitted(tor *topology.Torus, emit func(*topology.Torus, schedule.Sink) error) (*exec.Program, error) {
	sc, err := schedule.Collect(tor, emit)
	if err != nil {
		return nil, err
	}
	return exec.Compile(sc, exec.Options{})
}

func TestKeyFormat(t *testing.T) {
	tor := topology.MustNew(8, 8)
	if got, want := progcache.Key("direct", tor, 0), "direct@torus:8x8"; got != want {
		t.Errorf("Key = %q, want %q", got, want)
	}
	if got, want := progcache.Key("ring", topology.MustNew(4, 4, 4), 0x2b), "ring@torus:4x4x4#2b"; got != want {
		t.Errorf("Key = %q, want %q", got, want)
	}
	if got, want := progcache.Key("proposed", topology.MustNew(12), 0), "proposed@torus:12"; got != want {
		t.Errorf("Key = %q, want %q", got, want)
	}
	if got, want := progcache.Key("direct", topology.MustNewDragonfly(2, 4), 0), "direct@d3:2x4"; got != want {
		t.Errorf("Key = %q, want %q", got, want)
	}
}

// TestKeySeparatesFabrics pins the fabric-refactor contract: one
// algorithm with identical options on two fabric kinds must produce
// distinct keys — two misses and two cached entries, never a collision
// serving a dragonfly request with a torus program.
func TestKeySeparatesFabrics(t *testing.T) {
	// Both fabrics have 8 nodes, so a dims-only key scheme would alias.
	tor := topology.MustNew(8)
	dd := topology.MustNewDragonfly(2, 2)
	if tor.Nodes() != dd.Nodes() {
		t.Fatalf("test premise broken: %d vs %d nodes", tor.Nodes(), dd.Nodes())
	}
	kt := progcache.Key("direct", tor, 0)
	kd := progcache.Key("direct", dd, 0)
	if kt == kd {
		t.Fatalf("torus and dragonfly keys collide: %q", kt)
	}

	c := progcache.New(0)
	pt, err := getOrCompile(c, kt, nil, func() (*exec.Program, error) { return compileDirect(tor) })
	if err != nil {
		t.Fatal(err)
	}
	pd, err := getOrCompile(c, kd, nil, func() (*exec.Program, error) { return compileDirect(topology.MustNew(8)) })
	if err != nil {
		t.Fatal(err)
	}
	if pt == pd {
		t.Error("distinct fabric keys returned one program")
	}
	st := c.Stats()
	if st.Misses != 2 || st.Hits != 0 || st.Entries != 2 {
		t.Errorf("mixed-fabric stats: %+v, want 2 misses / 0 hits / 2 entries", st)
	}
	// Warm lookups on both keys hit their own entries.
	if p, ok := c.Get(kt); !ok || p != pt {
		t.Error("torus key lost its entry")
	}
	if p, ok := c.Get(kd); !ok || p != pd {
		t.Error("dragonfly key lost its entry")
	}
}

// TestEvictionStatsMixedFabrics drives an over-budget workload whose
// keys alternate fabric kinds and checks the eviction accounting still
// balances: entries + evictions == inserts, bytes within budget.
func TestEvictionStatsMixedFabrics(t *testing.T) {
	tor := topology.MustNew(4, 4)
	probe, err := compileDirect(tor)
	if err != nil {
		t.Fatal(err)
	}
	size := probe.SizeBytes()
	maxBytes := (size + size/2) * 16 // ~one program per shard
	c := progcache.New(maxBytes)
	const perFabric = 24
	for i := 0; i < perFabric; i++ {
		for _, f := range []topology.Fabric{tor, topology.MustNewDragonfly(2, 2)} {
			key := progcache.Key(fmt.Sprintf("tenant%d", i), f, 0)
			if _, err := getOrCompile(c, key, nil, func() (*exec.Program, error) { return compileDirect(tor) }); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Errorf("no evictions after %d mixed-fabric inserts into a %d-byte cache", 2*perFabric, maxBytes)
	}
	if st.Bytes > maxBytes {
		t.Errorf("cached bytes %d exceed budget %d", st.Bytes, maxBytes)
	}
	if st.Entries+int(st.Evictions) != 2*perFabric {
		t.Errorf("entries %d + evictions %d != inserts %d", st.Entries, st.Evictions, 2*perFabric)
	}
}

func TestFingerprint(t *testing.T) {
	if fp := progcache.Fingerprint(exec.Options{}); fp != 0 {
		t.Errorf("zero options fingerprint = %#x, want 0", fp)
	}
	// Runtime-only options never split the cache.
	if fp := progcache.Fingerprint(exec.Options{Serial: true, Workers: 7}); fp != 0 {
		t.Errorf("runtime options fingerprint = %#x, want 0", fp)
	}
	// nil traffic (full all-to-all) is distinct from an explicit empty
	// matrix, and from any non-empty matrix.
	empty := progcache.Fingerprint(exec.Options{Traffic: []block.Block{}})
	if empty == 0 {
		t.Error("empty traffic matrix fingerprints like nil")
	}
	a := progcache.Fingerprint(exec.Options{Traffic: []block.Block{{Origin: 0, Dest: 2}, {Origin: 1, Dest: 3}}})
	b := progcache.Fingerprint(exec.Options{Traffic: []block.Block{{Origin: 1, Dest: 3}, {Origin: 0, Dest: 2}}})
	c := progcache.Fingerprint(exec.Options{Traffic: []block.Block{{Origin: 0, Dest: 3}, {Origin: 1, Dest: 2}}})
	if a != b {
		t.Errorf("fingerprint is order-sensitive: %#x vs %#x", a, b)
	}
	if a == c || a == empty || a == 0 {
		t.Errorf("distinct matrices collide: a=%#x c=%#x empty=%#x", a, c, empty)
	}
}

func TestWarmHitReturnsSameProgram(t *testing.T) {
	c := progcache.New(0)
	tor := topology.MustNew(4, 4)
	key := progcache.Key("direct", tor, 0)
	p1, err := getOrCompile(c, key, nil, func() (*exec.Program, error) { return compileDirect(tor) })
	if err != nil {
		t.Fatalf("cold GetOrCompileTiered: %v", err)
	}
	p2, err := getOrCompile(c, key, nil, func() (*exec.Program, error) {
		t.Error("warm GetOrCompileTiered invoked compile")
		return compileDirect(tor)
	})
	if err != nil {
		t.Fatalf("warm GetOrCompileTiered: %v", err)
	}
	if p1 != p2 {
		t.Error("warm hit returned a different *Program")
	}
	if p3, ok := c.Get(key); !ok || p3 != p1 {
		t.Errorf("Get = (%p, %v), want (%p, true)", p3, ok, p1)
	}
	st := c.Stats()
	if st.Compiles != 1 || st.Misses != 1 || st.Hits != 2 || st.Entries != 1 {
		t.Errorf("stats after warm hit: %+v", st)
	}
	if st.Bytes != p1.SizeBytes() {
		t.Errorf("cached bytes = %d, want SizeBytes %d", st.Bytes, p1.SizeBytes())
	}
}

// TestSingleflight is the acceptance-criteria test: 64 concurrent
// requests for one uncached key trigger exactly one Compile, and every
// requester receives the same compiled program.
func TestSingleflight(t *testing.T) {
	c := progcache.New(0)
	tor := topology.MustNew(8, 8)
	key := progcache.Key("direct", tor, 0)

	var compiles atomic.Int64
	release := make(chan struct{})
	compile := func() (*exec.Program, error) {
		compiles.Add(1)
		<-release // hold the flight open until all requesters are in
		return compileDirect(tor)
	}

	const goroutines = 64
	progs := make([]*exec.Program, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			progs[i], errs[i] = getOrCompile(c, key, nil, compile)
		}(i)
	}
	// Give every goroutine time to reach the cache, then let the single
	// compile finish. (A late arrival that misses the in-flight window
	// would wrongly bump the compile count — the assertion below is the
	// point of the test.)
	time.Sleep(100 * time.Millisecond)
	close(release)
	wg.Wait()

	if n := compiles.Load(); n != 1 {
		t.Fatalf("64 concurrent requests ran %d compiles, want 1", n)
	}
	for i := range progs {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if progs[i] != progs[0] {
			t.Fatalf("goroutine %d received a different program", i)
		}
	}
	st := c.Stats()
	if st.Compiles != 1 || st.Misses != 1 {
		t.Errorf("stats: %+v, want 1 compile / 1 miss", st)
	}
	if st.Hits+st.Coalesced != goroutines-1 {
		t.Errorf("hits %d + coalesced %d = %d, want %d", st.Hits, st.Coalesced, st.Hits+st.Coalesced, goroutines-1)
	}
}

func TestErrorNotCached(t *testing.T) {
	c := progcache.New(0)
	boom := errors.New("transient failure")
	key := "direct@4x4"
	var calls atomic.Int64
	if _, err := getOrCompile(c, key, nil, func() (*exec.Program, error) {
		calls.Add(1)
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	tor := topology.MustNew(4, 4)
	p, err := getOrCompile(c, key, nil, func() (*exec.Program, error) {
		calls.Add(1)
		return compileDirect(tor)
	})
	if err != nil || p == nil {
		t.Fatalf("retry after error: %v", err)
	}
	if calls.Load() != 2 {
		t.Errorf("compile calls = %d, want 2 (errors must not be cached)", calls.Load())
	}
	if st := c.Stats(); st.Entries != 1 || st.Misses != 2 {
		t.Errorf("stats: %+v", st)
	}
}

// TestCompilePanicDoesNotWedgeKey: a compile that panics returns an
// error to its caller and to a request coalesced onto it, caches
// nothing, and the key's next request compiles afresh instead of
// blocking forever on the abandoned in-flight call.
func TestCompilePanicDoesNotWedgeKey(t *testing.T) {
	c := progcache.New(0)
	tor := topology.MustNew(4, 4)
	key := progcache.Key("direct", tor, 0)
	entered, release := make(chan struct{}), make(chan struct{})
	errs := make(chan error, 2)
	go func() {
		_, err := getOrCompile(c, key, nil, func() (*exec.Program, error) {
			close(entered)
			<-release
			panic("builder bug")
		})
		errs <- err
	}()
	<-entered
	go func() {
		_, err := getOrCompile(c, key, nil, func() (*exec.Program, error) {
			t.Error("coalesced request ran its own compile")
			return nil, errors.New("unexpected compile")
		})
		errs <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for c.Stats().Coalesced == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second request never coalesced onto the in-flight compile")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if err == nil || !strings.Contains(err.Error(), "panicked") {
				t.Fatalf("request %d: err = %v, want the compile panic as an error", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("request wedged behind the panicked compile")
		}
	}
	if st := c.Stats(); st.Entries != 0 || st.Compiles != 1 {
		t.Fatalf("after the panic: %+v, want nothing cached and one compile", st)
	}
	done := make(chan error, 1)
	go func() {
		_, err := getOrCompile(c, key, nil, func() (*exec.Program, error) { return compileDirect(tor) })
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("retry after the panic: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("retry wedged on the panicked key")
	}
	if st := c.Stats(); st.Entries != 1 || st.Compiles != 2 {
		t.Fatalf("after the retry: %+v, want one entry and two compiles", st)
	}
}

func TestEvictionRespectsByteBudget(t *testing.T) {
	tor := topology.MustNew(4, 4)
	probe, err := compileDirect(tor)
	if err != nil {
		t.Fatal(err)
	}
	size := probe.SizeBytes()
	// Budget each shard to hold one program (plus slack, minus two), so
	// any shard receiving a second key must evict its first.
	maxBytes := (size + size/2) * 16
	c := progcache.New(maxBytes)
	const keys = 48
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("direct@4x4#tenant%d", i)
		if _, err := getOrCompile(c, key, nil, func() (*exec.Program, error) { return compileDirect(tor) }); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Errorf("no evictions after %d inserts into a %d-byte cache (program size %d)", keys, maxBytes, size)
	}
	if st.Bytes > maxBytes {
		t.Errorf("cached bytes %d exceed budget %d", st.Bytes, maxBytes)
	}
	if st.Entries+int(st.Evictions) != keys {
		t.Errorf("entries %d + evictions %d != inserts %d", st.Entries, st.Evictions, keys)
	}
	if len(c.Keys()) != st.Entries {
		t.Errorf("Keys() length %d != Entries %d", len(c.Keys()), st.Entries)
	}
}

func TestOversizeNotCached(t *testing.T) {
	c := progcache.New(16) // 1 byte per shard: nothing fits
	tor := topology.MustNew(4, 4)
	key := progcache.Key("direct", tor, 0)
	var calls atomic.Int64
	for i := 0; i < 2; i++ {
		p, err := getOrCompile(c, key, nil, func() (*exec.Program, error) {
			calls.Add(1)
			return compileDirect(tor)
		})
		if err != nil || p == nil {
			t.Fatalf("GetOrCompileTiered %d: %v", i, err)
		}
	}
	if calls.Load() != 2 {
		t.Errorf("compile calls = %d, want 2 (oversize programs are not cached)", calls.Load())
	}
	if st := c.Stats(); st.Entries != 0 || st.Oversize != 2 || st.Bytes != 0 {
		t.Errorf("stats: %+v", st)
	}
}

// TestConcurrentMixedKeys hammers the cache with many tenants over a
// small key set under -race: every returned program must be the one
// cached for its key.
func TestConcurrentMixedKeys(t *testing.T) {
	c := progcache.New(0)
	shapes := []*topology.Torus{
		topology.MustNew(4, 4),
		topology.MustNew(8),
		topology.MustNew(2, 2, 2),
	}
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tor := shapes[(g+i)%len(shapes)]
				key := progcache.Key("direct", tor, 0)
				p, err := getOrCompile(c, key, nil, func() (*exec.Program, error) { return compileDirect(tor) })
				if err != nil {
					t.Errorf("GetOrCompileTiered(%s): %v", key, err)
					return
				}
				if cached, ok := c.Get(key); !ok || cached != p {
					t.Errorf("Get(%s) disagrees with GetOrCompileTiered", key)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Entries != len(shapes) {
		t.Errorf("entries = %d, want %d", st.Entries, len(shapes))
	}
	if st.Compiles > int64(len(shapes)) {
		t.Errorf("compiles = %d, want ≤ %d (singleflight)", st.Compiles, len(shapes))
	}
}

package progcache_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"torusx/internal/baseline"
	"torusx/internal/costmodel"
	"torusx/internal/exec"
	"torusx/internal/progcache"
	"torusx/internal/schedule"
	"torusx/internal/telemetry"
	"torusx/internal/topology"
)

// TestDiskStoreRoundTrip: store then load through a bare DiskStore,
// and the loaded program replays identically to the original.
func TestDiskStoreRoundTrip(t *testing.T) {
	store, err := progcache.NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tor := topology.MustNew(4, 4)
	pg, err := compileDirect(tor)
	if err != nil {
		t.Fatal(err)
	}
	key := progcache.Key("direct", tor, 0)
	if _, ok := store.Load(key, tor, 0); ok {
		t.Fatal("hit on empty store")
	}
	if err := store.Store(key, pg, 0); err != nil {
		t.Fatal(err)
	}
	got, ok := store.Load(key, tor, 0)
	if !ok {
		t.Fatal("miss after store")
	}
	want, err := pg.Run(exec.Options{Serial: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := got.Run(exec.Options{Serial: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Measure != want.Measure {
		t.Fatalf("loaded Measure %+v, want %+v", res.Measure, want.Measure)
	}
	// A different options fingerprint or fabric must read as a miss
	// (and the fingerprint mismatch removes the unusable file).
	if _, ok := store.Load(key, tor, 99); ok {
		t.Fatal("hit with wrong options fingerprint")
	}
}

// TestDiskStoreCorruptFileRemoved: a file that fails to decode — a
// flipped byte in its replay core, or a program an older build wrote in
// the stale v2, v3 or v4 format — is a tier-2 miss, is deleted on first
// touch, and the recompiled program is stored back in the current
// format.
func TestDiskStoreCorruptFileRemoved(t *testing.T) {
	tor := topology.MustNew(4, 4)
	pg, err := compileDirect(tor)
	if err != nil {
		t.Fatal(err)
	}
	key := progcache.Key("direct", tor, 0)
	for _, tc := range []struct {
		name  string
		spoil func(program []byte)
	}{
		{"corrupt", func(program []byte) { program[len(program)/2] ^= 0xff }},
		{"stale-v2", restamp(2)},
		{"stale-v3", restamp(3)},
		{"stale-v4", restamp(4)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			store, err := progcache.NewDiskStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := store.Store(key, pg, 0); err != nil {
				t.Fatal(err)
			}
			files, err := filepath.Glob(filepath.Join(dir, "*.txpg"))
			if err != nil || len(files) != 1 {
				t.Fatalf("want 1 stored file, got %v (%v)", files, err)
			}
			data, program := readProgramFile(t, files[0])
			tc.spoil(program)
			if err := os.WriteFile(files[0], data, 0o644); err != nil {
				t.Fatal(err)
			}
			// A tiered request misses tier 2 — which deletes the file
			// before the recompile starts — and stores the fresh program
			// back.
			c := progcache.New(0)
			c.SetTier2(store)
			if _, err := c.GetOrCompileTiered(key, tor, 0, nil, nil, func() (*exec.Program, error) {
				if _, err := os.Stat(files[0]); !os.IsNotExist(err) {
					t.Errorf("spoiled file not removed before the recompile: %v", err)
				}
				return compileDirect(tor)
			}); err != nil {
				t.Fatal(err)
			}
			if st := c.Stats(); st.Tier2Hits != 0 || st.Tier2Misses != 1 || st.Compiles != 1 || st.Tier2Stores != 1 {
				t.Fatalf("spoiled file: %v, want a tier-2 miss, one compile and one store", st)
			}
			if _, program := readProgramFile(t, files[0]); binary.LittleEndian.Uint16(program[4:]) != exec.CodecVersion {
				t.Fatalf("recompiled program stored as v%d, want v%d", binary.LittleEndian.Uint16(program[4:]), exec.CodecVersion)
			}
			if _, ok := store.Load(key, tor, 0); !ok {
				t.Fatal("miss after re-store")
			}
		})
	}
}

// restamp returns a spoiler that relabels a program file as codec
// version v and reseals its checksum, as an older build's file would
// read to this one.
func restamp(v uint16) func(program []byte) {
	return func(program []byte) {
		binary.LittleEndian.PutUint16(program[4:], v)
		binary.LittleEndian.PutUint32(program[len(program)-4:], crc32.ChecksumIEEE(program[:len(program)-4]))
	}
}

// readProgramFile reads a disk-tier file and returns it with the
// program bytes that follow its key header (which start at the codec
// magic).
func readProgramFile(t *testing.T, path string) (data, program []byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(data, []byte("TXPG"))
	if i < 0 {
		t.Fatalf("%s: no program magic", path)
	}
	return data, data[i:]
}

// TestTier2CrossProcessWarmth is the headline scenario: a second
// "process" — a fresh Cache instance sharing only the disk directory —
// serves its first request from tier 2 with zero compiles.
func TestTier2CrossProcessWarmth(t *testing.T) {
	dir := t.TempDir()
	tor := topology.MustNew(8, 8)
	key := progcache.Key("direct", tor, 0)

	warm := progcache.New(0)
	store1, err := progcache.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm.SetTier2(store1)
	pg, err := warm.GetOrCompileTiered(key, tor, 0, nil, nil, func() (*exec.Program, error) { return compileDirect(tor) })
	if err != nil {
		t.Fatal(err)
	}
	st := warm.Stats()
	if st.Compiles != 1 || st.Tier2Misses != 1 || st.Tier2Stores != 1 {
		t.Fatalf("warm process stats: %v", st)
	}

	// Process two: same directory, empty memory tier, a compile
	// callback that must never run.
	cold := progcache.New(0)
	store2, err := progcache.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold.SetTier2(store2)
	got, err := cold.GetOrCompileTiered(key, tor, 0, nil, nil, func() (*exec.Program, error) {
		t.Error("compile ran despite warm disk tier")
		return compileDirect(tor)
	})
	if err != nil {
		t.Fatal(err)
	}
	st = cold.Stats()
	if st.Compiles != 0 || st.Tier2Hits != 1 || st.Misses != 1 {
		t.Fatalf("cold process stats: %v", st)
	}
	want, err := pg.Run(exec.Options{Serial: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := got.Run(exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Measure != want.Measure || res.MaxSharing != want.MaxSharing {
		t.Fatalf("tier-2 program diverges: %+v vs %+v", res.Measure, want.Measure)
	}
	// And the second request in the cold process is a plain memory hit.
	if _, err := cold.GetOrCompileTiered(key, tor, 0, nil, nil, func() (*exec.Program, error) {
		t.Error("compile ran on warm memory tier")
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	if st = cold.Stats(); st.Hits != 1 {
		t.Fatalf("second request missed memory: %v", st)
	}
}

// TestTier2SingleflightParallel: concurrent cold requesters of one key
// share a single disk probe and a single compile — the singleflight
// covers both tiers. Name matches the CI race-subset pattern.
func TestTier2SingleflightParallel(t *testing.T) {
	dir := t.TempDir()
	tor := topology.MustNew(4, 4)
	key := progcache.Key("direct", tor, 0)
	c := progcache.New(0)
	store, err := progcache.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	c.SetTier2(store)

	const workers = 8
	var wg sync.WaitGroup
	progs := make([]*exec.Program, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pg, err := c.GetOrCompileTiered(key, tor, 0, nil, nil, func() (*exec.Program, error) { return compileDirect(tor) })
			if err != nil {
				t.Error(err)
				return
			}
			progs[w] = pg
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Compiles != 1 {
		t.Fatalf("%d compiles for one key, want 1 (%v)", st.Compiles, st)
	}
	if st.Tier2Misses != 1 || st.Tier2Stores != 1 {
		t.Fatalf("tier-2 probed more than once: %v", st)
	}
	for w := 1; w < workers; w++ {
		if progs[w] != progs[0] {
			t.Fatalf("worker %d got a different program instance", w)
		}
	}
}

// TestEvictionStatsDistinguishDiskBacked: evicting a tier-2-backed
// entry increments both eviction counters; evicting a memory-only
// entry increments only the total, and the footer string carries the
// split.
func TestEvictionStatsDistinguishDiskBacked(t *testing.T) {
	tor := topology.MustNew(8, 8)
	pg, err := compileDirect(tor)
	if err != nil {
		t.Fatal(err)
	}
	size := pg.SizeBytes()
	// Budget one program per shard so every later insert into a shard
	// evicts its current occupant. Keys reuse one fabric with synthetic
	// algorithm names; programs are all the same compiled instance.
	mk := func(c *progcache.Cache, alg string, tier2 bool) {
		key := progcache.Key(alg, tor, 0)
		var err error
		if tier2 {
			_, err = c.GetOrCompileTiered(key, tor, 0, nil, nil, func() (*exec.Program, error) { return pg, nil })
		} else {
			_, err = getOrCompile(c, key, nil, func() (*exec.Program, error) { return pg, nil })
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	// numShards is 16; size*16 gives each shard a one-program budget.
	c := progcache.New(size * 16)
	store, err := progcache.NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c.SetTier2(store)
	// Fill with disk-backed entries until at least one eviction of a
	// disk-backed entry happens, then with memory-only entries until a
	// memory-only eviction happens.
	for i := 0; c.Stats().EvictionsDiskBacked == 0; i++ {
		mk(c, "disk"+string(rune('a'+i)), true)
	}
	st := c.Stats()
	if st.EvictionsDiskBacked != st.Evictions {
		t.Fatalf("disk-backed evictions %d != total %d with only tier-2 entries", st.EvictionsDiskBacked, st.Evictions)
	}
	base := st
	for i := 0; ; i++ {
		mk(c, "mem"+string(rune('a'+i)), false)
		st = c.Stats()
		if st.Evictions > base.Evictions {
			break
		}
	}
	// Memory-only inserts can evict either kind; drive until a
	// memory-only entry has been evicted (total pulls ahead of
	// disk-backed).
	for i := 0; c.Stats().Evictions == c.Stats().EvictionsDiskBacked; i++ {
		mk(c, "mem2"+string(rune('a'+i)), false)
	}
	st = c.Stats()
	if st.EvictionsDiskBacked >= st.Evictions {
		t.Fatalf("no memory-only eviction recorded: %v", st)
	}
	if !strings.Contains(st.String(), "disk-backed") {
		t.Fatalf("footer lacks the eviction split: %q", st.String())
	}
}

// ringSource is the schedule source a registry build of ring@tor would
// record, counting its calls in *plans.
func ringSource(tor *topology.Torus, plans *int) func() (*schedule.Schedule, error) {
	return func() (*schedule.Schedule, error) {
		*plans++
		return schedule.Collect(tor, baseline.EmitRing)
	}
}

// TestTier2ScheduleOutlivesProgram: a loaded program's schedule is
// re-planned from the source the cache recorded, so it is the
// builder's own and stays whole after the program is dropped and
// collected.
func TestTier2ScheduleOutlivesProgram(t *testing.T) {
	store, err := progcache.NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tor := topology.MustNew(16, 16)
	src, err := schedule.Collect(tor, baseline.EmitRing)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := exec.Compile(src, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := progcache.Key("ring", tor, 0)
	if err := store.Store(key, pg, 0); err != nil {
		t.Fatal(err)
	}
	c := progcache.New(0)
	c.SetTier2(store)
	plans := 0
	loaded, err := c.GetOrCompileTiered(key, tor, 0, nil, ringSource(tor, &plans), func() (*exec.Program, error) {
		t.Error("compile ran despite a stored file")
		return pg, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := loaded.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	if plans != 1 {
		t.Fatalf("source ran %d times, want once", plans)
	}
	loaded, c = nil, nil
	runtime.GC()
	runtime.GC()
	if !reflect.DeepEqual(sc.Phases, src.Phases) {
		t.Fatal("re-planned schedule differs from the compiled one")
	}
	if _, err := exec.Compile(sc, exec.Options{}); err != nil {
		t.Fatalf("schedule no longer compiles after its program was collected: %v", err)
	}
}

// TestTier2TruncatedInPlace: the disk tier reads a file into the heap,
// so a program it loaded — on a tier-2 hit, or right after storing its
// compile — owns its bytes. Truncating the file in place afterwards
// must not reach it: arenas, replays, ReplayInto and a traced run
// (which re-plans from the recorded source) all still verify, with no
// signal raised.
func TestTier2TruncatedInPlace(t *testing.T) {
	tor := topology.MustNew(16, 16)
	key := progcache.Key("ring", tor, 0)
	compile := func() (*exec.Program, error) { return compileRing(tor) }
	ref, err := compile()
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Run(exec.Options{Serial: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, loaded := range []bool{true, false} {
		dir := t.TempDir()
		store, err := progcache.NewDiskStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		plans := 0
		c := progcache.New(0)
		c.SetTier2(store)
		pg, err := c.GetOrCompileTiered(key, tor, 0, nil, ringSource(tor, &plans), compile)
		if err != nil {
			t.Fatal(err)
		}
		if loaded {
			c = progcache.New(0)
			c.SetTier2(store)
			if pg, err = c.GetOrCompileTiered(key, tor, 0, nil, ringSource(tor, &plans), compile); err != nil {
				t.Fatal(err)
			}
			if st := c.Stats(); st.Tier2Hits != 1 {
				t.Fatalf("loaded=%v: %v, want a tier-2 hit", loaded, st)
			}
		}
		files, err := filepath.Glob(filepath.Join(dir, "*.txpg"))
		if err != nil || len(files) != 1 {
			t.Fatalf("want 1 stored file, got %v (%v)", files, err)
		}
		if err := os.Truncate(files[0], 0); err != nil {
			t.Fatal(err)
		}
		a := pg.AcquireArena()
		res, err := pg.RunArena(a, exec.Options{})
		if err != nil {
			t.Fatalf("loaded=%v: replay after truncation: %v", loaded, err)
		}
		sameDelivery(t, want, res)
		dst := make([]int32, pg.DeliverySize())
		if err := pg.ReplayInto(a, dst, exec.Options{}); err != nil {
			t.Fatalf("loaded=%v: ReplayInto after truncation: %v", loaded, err)
		}
		pg.ReleaseArena(a)
		traced := exec.Options{Telemetry: telemetry.New(&telemetry.MemorySink{}, costmodel.T3D(64))}
		res, err = pg.RunArena(pg.NewArena(), traced)
		if err != nil {
			t.Fatalf("loaded=%v: traced run after truncation: %v", loaded, err)
		}
		sameDelivery(t, want, res)
		if plans != 1 || res.Schedule == nil {
			t.Fatalf("loaded=%v: traced run re-planned %d times (schedule %v), want once", loaded, plans, res.Schedule != nil)
		}
	}
}

// sameDelivery fails unless got delivered exactly want's blocks.
func sameDelivery(t *testing.T, want, got *exec.Result) {
	t.Helper()
	for v := range want.Buffers {
		if !reflect.DeepEqual(got.Buffers[v].View(), want.Buffers[v].View()) {
			t.Fatalf("node %d delivery differs", v)
		}
	}
}

// TestTier2TornCoreRecompilesOnce: a file cut short anywhere — inside
// its key header, its program header or its tables — is a tier-2 miss,
// is removed before the recompile, and the key compiles exactly once
// and is stored back whole.
func TestTier2TornCoreRecompilesOnce(t *testing.T) {
	tor := topology.MustNew(8, 8)
	key := progcache.Key("direct", tor, 0)
	ref, err := compileDirect(tor)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := exec.EncodeProgram(ref, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{-8, 0, 3, 12, 40, len(enc) / 2, len(enc) - 4, len(enc) - 1} {
		dir := t.TempDir()
		store, err := progcache.NewDiskStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Store(key, ref, 0); err != nil {
			t.Fatal(err)
		}
		files, err := filepath.Glob(filepath.Join(dir, "*.txpg"))
		if err != nil || len(files) != 1 {
			t.Fatalf("want 1 stored file, got %v (%v)", files, err)
		}
		data, program := readProgramFile(t, files[0])
		if err := os.WriteFile(files[0], data[:len(data)-len(program)+cut], 0o644); err != nil {
			t.Fatal(err)
		}
		c := progcache.New(0)
		c.SetTier2(store)
		compiles := 0
		pg, err := c.GetOrCompileTiered(key, tor, 0, nil, nil, func() (*exec.Program, error) {
			compiles++
			if _, err := os.Stat(files[0]); !os.IsNotExist(err) {
				t.Errorf("cut at %d: torn file not removed before the recompile: %v", cut, err)
			}
			return compileDirect(tor)
		})
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if st := c.Stats(); compiles != 1 || st.Tier2Hits != 0 || st.Tier2Misses != 1 || st.Tier2Stores != 1 {
			t.Fatalf("cut at %d: %d compiles, %v; want one miss, compile and store", cut, compiles, st)
		}
		if _, err := pg.Run(exec.Options{}); err != nil {
			t.Fatalf("cut at %d: recompiled program: %v", cut, err)
		}
		if _, program := readProgramFile(t, files[0]); !bytes.Equal(program, enc) {
			t.Fatalf("cut at %d: file stored back differs from the program's bytes", cut)
		}
	}
}

// TestTier2LeftoverTempFileIgnored: a temp file a killed Store left in
// the directory — here one holding a whole program file for the key —
// is never loaded, and a later Store of the same key publishes its own
// file beside it.
func TestTier2LeftoverTempFileIgnored(t *testing.T) {
	tor := topology.MustNew(8, 8)
	key := progcache.Key("direct", tor, 0)
	ref, err := compileDirect(tor)
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := progcache.NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := scratch.Store(key, ref, 0); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(scratch.Dir(), "*.txpg"))
	if err != nil || len(files) != 1 {
		t.Fatalf("want 1 stored file, got %v (%v)", files, err)
	}
	data, _ := readProgramFile(t, files[0])
	dir := t.TempDir()
	leftover := filepath.Join(dir, ".txpg-123456")
	if err := os.WriteFile(leftover, data, 0o644); err != nil {
		t.Fatal(err)
	}
	store, err := progcache.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := store.Load(key, tor, 0); ok {
		t.Fatal("a leftover temp file was loaded")
	}
	c := progcache.New(0)
	c.SetTier2(store)
	if _, err := c.GetOrCompileTiered(key, tor, 0, nil, nil, func() (*exec.Program, error) { return compileDirect(tor) }); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Compiles != 1 || st.Tier2Hits != 0 || st.Tier2Stores != 1 {
		t.Fatalf("%v; want a miss, one compile and one store despite the leftover", st)
	}
	if _, ok := store.Load(key, tor, 0); !ok {
		t.Fatal("miss after a Store beside a leftover temp file")
	}
	if _, err := os.Stat(leftover); err != nil {
		t.Fatalf("the leftover temp file is not Store's to touch: %v", err)
	}
}

// TestStoredProgramWeighsDecoded: a 16x16 program compiled through a
// cache with a disk tier is served from the file it stored, so it
// weighs exactly what the same program loaded from that file weighs,
// and the cache charges it that; a program file is its replay core, so
// a compile without a disk tier weighs the same.
func TestStoredProgramWeighsDecoded(t *testing.T) {
	tor := topology.MustNew(16, 16)
	for _, alg := range []string{"direct", "ring"} {
		key := progcache.Key(alg, tor, 0)
		compile := func() (*exec.Program, error) {
			if alg == "ring" {
				return compileRing(tor)
			}
			return compileDirect(tor)
		}
		mem, err := compile()
		if err != nil {
			t.Fatal(err)
		}
		store, err := progcache.NewDiskStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		c := progcache.New(0)
		c.SetTier2(store)
		pg, err := c.GetOrCompileTiered(key, tor, 0, nil, nil, compile)
		if err != nil {
			t.Fatal(err)
		}
		loaded, ok := store.Load(key, tor, 0)
		if !ok {
			t.Fatalf("%s: miss after store", alg)
		}
		if pg.SizeBytes() != loaded.SizeBytes() {
			t.Fatalf("%s: stored program weighs %d bytes, loaded %d", alg, pg.SizeBytes(), loaded.SizeBytes())
		}
		if st := c.Stats(); st.Bytes != pg.SizeBytes() {
			t.Fatalf("%s: cache charges %d bytes, program weighs %d", alg, st.Bytes, pg.SizeBytes())
		}
		if mem.SizeBytes() != pg.SizeBytes() {
			t.Fatalf("%s: memory-only program weighs %d bytes, the stored one %d", alg, mem.SizeBytes(), pg.SizeBytes())
		}
	}
}

// TestDiskStoreWritesHeldBytes: Store writes the bytes the program
// holds, so storing a ring@16x16 program allocates a few KiB — never a
// buffer the size of the file — and the file holds exactly
// EncodeProgram's bytes. Store leaves the program's weight as it was.
func TestDiskStoreWritesHeldBytes(t *testing.T) {
	const budget = 64 << 10
	dir := t.TempDir()
	store, err := progcache.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	tor := topology.MustNew(16, 16)
	pg, err := compileRing(tor)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := exec.EncodeProgram(pg, 3)
	if err != nil {
		t.Fatal(err)
	}
	key := progcache.Key("ring", tor, 3)
	size := pg.SizeBytes()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = store.Store(key, pg, 3)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Fatalf("storing a %d-byte program allocated %d bytes, budget %d", len(enc), got, budget)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.txpg"))
	if err != nil || len(files) != 1 {
		t.Fatalf("want 1 stored file, got %v (%v)", files, err)
	}
	if _, program := readProgramFile(t, files[0]); !bytes.Equal(program, enc) {
		t.Fatal("stored file differs from EncodeProgram's bytes")
	}
	if got := pg.SizeBytes(); got != size {
		t.Fatalf("Store changed the program's weight: %d bytes, was %d", got, size)
	}
}

// TestDiskStoreFailureServesCompile: a disk tier that cannot write —
// its directory replaced by a regular file after NewDiskStore, so
// CreateTemp fails even for root — costs the request its store and
// nothing else. The compile is served, replays and is cached in memory;
// no store is counted; the next request is a memory hit; and no temp
// file is left behind.
func TestDiskStoreFailureServesCompile(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "tier2")
	store, err := progcache.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	tor := topology.MustNew(8, 8)
	key := progcache.Key("direct", tor, 0)
	c := progcache.New(0)
	c.SetTier2(store)
	pg, err := c.GetOrCompileTiered(key, tor, 0, nil, nil, func() (*exec.Program, error) { return compileDirect(tor) })
	if err != nil {
		t.Fatal(err)
	}
	a := pg.AcquireArena()
	res, err := pg.RunArena(a, exec.Options{})
	if err != nil {
		t.Fatalf("program served after a failed store does not replay: %v", err)
	}
	ref, err := compileDirect(tor)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Run(exec.Options{Serial: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Measure != want.Measure {
		t.Fatalf("served program measures %+v, want %+v", res.Measure, want.Measure)
	}
	pg.ReleaseArena(a)
	st := c.Stats()
	if st.Compiles != 1 || st.Tier2Stores != 0 || st.Entries != 1 {
		t.Fatalf("after a failed store: %v; want 1 compile, 0 stores, 1 entry", st)
	}
	got, err := c.GetOrCompileTiered(key, tor, 0, nil, nil, func() (*exec.Program, error) {
		t.Error("compile ran although the program is cached in memory")
		return compileDirect(tor)
	})
	if err != nil || got != pg {
		t.Fatalf("second request: %v, same program %v", err, got == pg)
	}
	if st = c.Stats(); st.Hits != 1 || st.Tier2Stores != 0 {
		t.Fatalf("second request was not a memory hit: %v", st)
	}
	left, err := filepath.Glob(filepath.Join(root, ".txpg-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("failed store left temp files: %v", left)
	}
}

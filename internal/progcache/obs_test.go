package progcache_test

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"torusx/internal/exec"
	"torusx/internal/obs"
	"torusx/internal/progcache"
	"torusx/internal/topology"
)

// TestStatsStringIncludesOversize pins the fix for the Stats.String
// omission: every counter the struct carries must appear in the
// rendered snapshot, oversize included.
func TestStatsStringIncludesOversize(t *testing.T) {
	s := progcache.Stats{Hits: 1, Misses: 2, Coalesced: 3, Compiles: 4,
		Evictions: 5, Oversize: 6, Entries: 7, Bytes: 8}
	got := s.String()
	for _, want := range []string{"hits 1", "misses 2", "coalesced 3", "compiles 4",
		"evictions 5", "oversize 6", "entries 7", "bytes 8"} {
		if !strings.Contains(got, want) {
			t.Errorf("Stats.String() = %q, missing %q", got, want)
		}
	}
}

// TestGetOrCompileTracedSpans verifies the per-request stage spans:
// a miss records cache-lookup only (the compile decomposition belongs
// to the caller), a hit records cache-lookup, and a coalesced waiter
// records cache-lookup + singleflight-wait.
func TestGetOrCompileTracedSpans(t *testing.T) {
	tor := topology.MustNew(4, 4)
	c := progcache.New(0)
	reg := obs.NewRegistry()
	key := progcache.Key("direct", tor, 0)

	stageNames := func(req *obs.Request) []string {
		var names []string
		for _, st := range req.Stages() {
			names = append(names, st.Name)
		}
		return names
	}

	missReq := reg.StartRequest("miss")
	if _, err := getOrCompile(c, key, missReq, func() (*exec.Program, error) { return compileDirect(tor) }); err != nil {
		t.Fatal(err)
	}
	if got := stageNames(missReq); len(got) != 1 || got[0] != "cache-lookup" {
		t.Errorf("miss stages = %v, want [cache-lookup]", got)
	}

	hitReq := reg.StartRequest("hit")
	if _, err := getOrCompile(c, key, hitReq, nil); err != nil {
		t.Fatal(err)
	}
	if got := stageNames(hitReq); len(got) != 1 || got[0] != "cache-lookup" {
		t.Errorf("hit stages = %v, want [cache-lookup]", got)
	}

	// Coalesced wait: hold one compile open until a second traced
	// request has piled onto the inflight call.
	c2 := progcache.New(0)
	release := make(chan struct{})
	waiting := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		getOrCompile(c2, key, nil, func() (*exec.Program, error) {
			close(waiting)
			<-release
			return compileDirect(tor)
		})
	}()
	<-waiting
	waitReq := reg.StartRequest("coalesced")
	wg.Add(1)
	go func() {
		defer wg.Done()
		getOrCompile(c2, key, waitReq, nil)
	}()
	// The coalesced counter bumps after the waiter's lookup and before
	// it blocks on the flight, so polling it synchronizes without
	// sleeping: once it reads 1 the waiter is committed to the
	// singleflight-wait path and the compile can be released.
	deadline := time.Now().Add(5 * time.Second)
	for c2.Stats().Coalesced == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never coalesced onto the in-flight compile")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	got := stageNames(waitReq)
	if len(got) != 2 || got[0] != "cache-lookup" || got[1] != "singleflight-wait" {
		t.Errorf("coalesced stages = %v, want [cache-lookup singleflight-wait]", got)
	}
	if st := c2.Stats(); st.Coalesced != 1 {
		t.Errorf("coalesced counter = %d, want 1", st.Coalesced)
	}
}

// TestRegisterMetrics exports a cache on a private registry and checks
// the counters and occupancy gauges track the cache's Stats.
func TestRegisterMetrics(t *testing.T) {
	tor := topology.MustNew(4, 4)
	c := progcache.New(0)
	reg := obs.NewRegistry()
	c.RegisterMetrics(reg, "progcache")

	key := progcache.Key("direct", tor, 0)
	if _, err := getOrCompile(c, key, nil, func() (*exec.Program, error) { return compileDirect(tor) }); err != nil {
		t.Fatal(err)
	}
	if _, err := getOrCompile(c, key, nil, nil); err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	st := c.Stats()
	if s.Counters["progcache.hits"] != st.Hits || s.Counters["progcache.misses"] != st.Misses ||
		s.Counters["progcache.compiles"] != st.Compiles || s.Counters["progcache.oversize"] != st.Oversize {
		t.Errorf("registry counters %v diverge from stats %+v", s.Counters, st)
	}
	if int(s.Gauges["progcache.entries"]) != st.Entries || int64(s.Gauges["progcache.bytes"]) != st.Bytes {
		t.Errorf("registry gauges %v diverge from stats %+v", s.Gauges, st)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "torusx_progcache_hits 1") {
		t.Errorf("prometheus dump missing hits:\n%s", buf.String())
	}
}

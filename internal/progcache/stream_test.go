package progcache_test

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"torusx/internal/baseline"
	"torusx/internal/exec"
	"torusx/internal/progcache"
	"torusx/internal/schedule"
	"torusx/internal/topology"
)

// goroutinesSettle waits briefly for the goroutine count to fall back
// to want — a goroutine that has signalled its end may still be
// returning — and reports whether it did.
func goroutinesSettle(want int) bool {
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= want {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

// TestStreamedBuilderPanicDoesNotWedgeKey: a builder that panics after
// emitting steps into CompileStream re-panics on the requesting
// goroutine — where the cache turns it into the request's error, and
// the coalesced waiter's — leaves no goroutine behind, and the key
// compiles on its next request.
func TestStreamedBuilderPanicDoesNotWedgeKey(t *testing.T) {
	c := progcache.New(0)
	tor := topology.MustNew(4, 4)
	key := progcache.Key("stream-panic", tor, 0)
	before := runtime.NumGoroutine()
	entered, release := make(chan struct{}), make(chan struct{})
	panicky := func(s schedule.Sink) error {
		sc, err := schedule.Collect(tor, baseline.EmitRing)
		if err != nil {
			return err
		}
		s.Phase(sc.Phases[0].Name, 0)
		for _, st := range sc.Phases[0].Steps[:2] {
			if err := s.Step(st); err != nil {
				return err
			}
		}
		close(entered)
		<-release
		panic("builder bug")
	}
	errs := make(chan error, 2)
	go func() {
		_, err := getOrCompile(c, key, nil, func() (*exec.Program, error) {
			return exec.CompileStream(tor, panicky, exec.Options{})
		})
		errs <- err
	}()
	<-entered
	go func() {
		_, err := getOrCompile(c, key, nil, func() (*exec.Program, error) {
			t.Error("coalesced request ran its own compile")
			return nil, nil
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
			if err == nil || !strings.Contains(err.Error(), "panicked: builder bug") {
				t.Fatalf("request %d: err = %v, want the builder's panic as the compile's error", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("request wedged behind the panicked builder")
		}
	}
	if !goroutinesSettle(before) {
		t.Fatalf("%d goroutines after the panicked compile, %d before", runtime.NumGoroutine(), before)
	}
	pg, err := getOrCompile(c, key, nil, func() (*exec.Program, error) {
		return exec.CompileStream(tor, func(s schedule.Sink) error { return baseline.EmitRing(tor, s) }, exec.Options{})
	})
	if err != nil || pg == nil {
		t.Fatalf("retry after the panic: %v", err)
	}
	if st := c.Stats(); st.Entries != 1 || st.Compiles != 2 {
		t.Fatalf("after the retry: %+v, want one entry and two compiles", st)
	}
}

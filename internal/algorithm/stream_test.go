package algorithm

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"torusx/internal/baseline"
	"torusx/internal/exec"
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

// ringThen is a builder named name that streams the first steps of
// Ring's first phase on t and then calls after.
func ringThen(name string, steps int, after func(sink schedule.Sink) error) Builder {
	return fabricBuilder{name: name, torus: func(t *topology.Torus, sink schedule.Sink) error {
		sc, err := schedule.Collect(t, baseline.EmitRing)
		if err != nil {
			return err
		}
		sink.Phase(sc.Phases[0].Name, 0)
		for _, st := range sc.Phases[0].Steps[:steps] {
			if err := sink.Step(st); err != nil {
				return err
			}
		}
		return after(sink)
	}}
}

// TestStreamedBuilderPanic: a builder that panics mid-stream fails
// BuildProgram with its panic — re-raised on the requesting goroutine,
// where the cache turns it into the error — leaves no goroutine behind,
// and does not wedge its key: the next request compiles.
func TestStreamedBuilderPanic(t *testing.T) {
	withColdTier(t)
	tor := topology.MustNew(8, 8)
	before := runtime.NumGoroutine()
	b := ringThen("stream-panic", 3, func(schedule.Sink) error { panic("builder bug") })
	if _, err := BuildProgram(b, tor, exec.Options{}); err == nil || !strings.Contains(err.Error(), "panicked: builder bug") {
		t.Fatalf("BuildProgram err = %v, want the builder's panic", err)
	}
	if !goroutinesSettle(before) {
		t.Fatalf("%d goroutines after BuildProgram, %d before", runtime.NumGoroutine(), before)
	}
	good := fabricBuilder{name: "stream-panic", torus: baseline.EmitRing}
	if _, err := BuildProgram(good, tor, exec.Options{}); err != nil {
		t.Fatalf("the key after the panic: %v", err)
	}
	if st := cache.Stats(); st.Compiles != 2 {
		t.Fatalf("%+v, want the retry to compile", st)
	}
}

// TestStreamedBuilderError: a builder that returns an error mid-stream
// fails the compile with that error, and leaves no goroutine behind.
func TestStreamedBuilderError(t *testing.T) {
	withColdTier(t)
	tor := topology.MustNew(8, 8)
	before := runtime.NumGoroutine()
	gaveUp := errors.New("builder gave up")
	b := ringThen("stream-error", 3, func(schedule.Sink) error { return gaveUp })
	if _, err := BuildProgram(b, tor, exec.Options{}); !errors.Is(err, gaveUp) {
		t.Fatalf("BuildProgram err = %v, want %v", err, gaveUp)
	}
	if !goroutinesSettle(before) {
		t.Fatalf("%d goroutines after BuildProgram, %d before", runtime.NumGoroutine(), before)
	}
}

// TestStreamedRejectionStopsBuilder: a schedule the program format
// cannot hold is rejected at its first step, and the compile stops the
// builder there: its sink refuses further steps long before the
// builder would have finished, and no goroutine outlives BuildProgram.
func TestStreamedRejectionStopsBuilder(t *testing.T) {
	withColdTier(t)
	tor := topology.MustNew(8, 8)
	before := runtime.NumGoroutine()
	const total = 10000
	sent, refused := 0, false
	b := fabricBuilder{name: "stream-reject", torus: func(t *topology.Torus, sink schedule.Sink) error {
		sink.Phase("limit", 0)
		for i := 0; i < total; i++ {
			st := schedule.Step{Transfers: []schedule.Transfer{{Src: 0, Dst: 1, Dim: 1, Dir: topology.Pos, Hops: 1, Blocks: -1}}}
			if err := sink.Step(st); err != nil {
				refused = true
				return err
			}
			sent++
		}
		return nil
	}}
	if _, err := BuildProgram(b, tor, exec.Options{}); err == nil || !strings.Contains(err.Error(), "program format") {
		t.Fatalf("BuildProgram err = %v, want a program format error", err)
	}
	if !refused || sent >= total/2 {
		t.Fatalf("the builder sent %d of %d steps (refused: %v): the compile did not stop it", sent, total, refused)
	}
	if !goroutinesSettle(before) {
		t.Fatalf("%d goroutines after BuildProgram, %d before", runtime.NumGoroutine(), before)
	}
}

// emitOnly is a Builder whose BuildSchedule fails: only its
// EmitSchedule, the method BuildProgram compiles, builds anything.
type emitOnly struct{ Builder }

func (emitOnly) BuildSchedule(topology.Fabric) (*schedule.Schedule, error) {
	return nil, errors.New("BuildSchedule called")
}

// TestScheduleReplansFromTheCompiledEmitter: a served program's
// Schedule() re-plans through the emitter BuildProgram compiled, not
// through BuildSchedule, so the two methods cannot disagree.
func TestScheduleReplansFromTheCompiledEmitter(t *testing.T) {
	withColdTier(t)
	tor := topology.MustNew(8, 8)
	pg, err := BuildProgram(emitOnly{fabricBuilder{name: "emit-only", torus: baseline.EmitRing}}, tor, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := pg.Schedule()
	if err != nil {
		t.Fatalf("Schedule(): %v", err)
	}
	ring, err := schedule.Collect(tor, baseline.EmitRing)
	if err != nil {
		t.Fatal(err)
	}
	if want := ring.NumSteps(); sc.NumSteps() != want {
		t.Fatalf("Schedule() has %d steps, ring has %d", sc.NumSteps(), want)
	}
}

// refusingSink takes the first step, refuses the second and every
// later one with err, and counts its Step calls.
type refusingSink struct {
	err   error
	calls int
}

func (*refusingSink) Lattice(int)       {}
func (*refusingSink) Phase(string, int) {}

func (s *refusingSink) Step(schedule.Step) error {
	if s.calls++; s.calls >= 2 {
		return s.err
	}
	return nil
}

// TestEmittersHonourRefusingSink: every registry emitter, on 8x8 and
// on D3(2,3), stops at the first step its sink refuses and returns
// the sink's own error, unchanged.
func TestEmittersHonourRefusingSink(t *testing.T) {
	for _, f := range []topology.Fabric{topology.MustNew(8, 8), topology.MustNewDragonfly(2, 3)} {
		for _, name := range Supporting(f) {
			t.Run(name+"/"+f.Fingerprint(), func(t *testing.T) {
				b, err := For(name)
				if err != nil {
					t.Fatal(err)
				}
				sink := &refusingSink{err: errors.New("sink refuses")}
				if err := b.EmitSchedule(f, sink); err != sink.err {
					t.Fatalf("EmitSchedule returned %v, want the sink's own error", err)
				}
				if sink.calls != 2 {
					t.Fatalf("%d Step calls, want 2: the emitter went on after the sink refused", sink.calls)
				}
			})
		}
	}
}

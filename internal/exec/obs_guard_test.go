// The obs layer's zero-cost-when-disabled guard, holding request
// tracing to the same bar PR 3 set for telemetry: a compiled replay
// with Options.Request nil must allocate exactly what it allocated
// before the layer existed and must not be measurably slower than a
// replay recording live spans (which does strictly more work) —
// plus the determinism contract: histograms exported from parallel
// replays match the serial reference exactly.
package exec_test

import (
	"testing"
	"time"

	"torusx/internal/baseline"
	"torusx/internal/exec"
	"torusx/internal/obs"
	"torusx/internal/topology"
)

func compileDirect8x8(t testing.TB) *exec.Program {
	t.Helper()
	tor := topology.MustNew(8, 8)
	pg, err := exec.Compile(mustCollect(tor, baseline.EmitDirect), exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return pg
}

// TestObsDisabledAllocsUnchanged pins the structural half: a compiled
// replay with an explicitly nil Request allocates exactly the same
// count as one that never mentions the field.
func TestObsDisabledAllocsUnchanged(t *testing.T) {
	pg := compileDirect8x8(t)
	for _, serial := range []bool{true, false} {
		arena := pg.NewArena()
		opt := exec.Options{Serial: serial}
		run := func(o exec.Options) {
			if _, err := pg.RunArena(arena, o); err != nil {
				t.Fatal(err)
			}
		}
		run(opt) // warm the arena
		baseline := testing.AllocsPerRun(10, func() { run(opt) })
		var req *obs.Request
		optNil := exec.Options{Serial: serial, Request: req}
		withNil := testing.AllocsPerRun(10, func() { run(optNil) })
		if withNil != baseline {
			t.Errorf("serial=%v: nil-request replay allocates %v, plain replay %v", serial, withNil, baseline)
		}
	}
}

// TestObsDisabledNotSlowerThanEnabled is the temporal half, mirroring
// TestTelemetryDisabledNotSlowerThanNop's shape and headroom.
func TestObsDisabledNotSlowerThanEnabled(t *testing.T) {
	if raceEnabled {
		t.Skip("timing assertion meaningless under the race detector")
	}
	if testing.Short() {
		t.Skip("timing test skipped in -short mode")
	}
	pg := compileDirect8x8(t)
	arena := pg.NewArena()
	reg := obs.NewRegistry()
	measure := func(mk func() exec.Options) time.Duration {
		best := time.Duration(1<<63 - 1)
		for i := 0; i < 5; i++ {
			opt := mk()
			start := time.Now()
			if _, err := pg.RunArena(arena, opt); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d < best {
				best = d
			}
			opt.Request.Finish()
		}
		return best
	}
	measure(func() exec.Options { return exec.Options{Serial: true} }) // warm up
	disabled := measure(func() exec.Options { return exec.Options{Serial: true} })
	enabled := measure(func() exec.Options {
		return exec.Options{Serial: true, Request: reg.StartRequest("guard")}
	})
	if float64(disabled) > 2*float64(enabled)+float64(2*time.Millisecond) {
		t.Errorf("disabled obs slower than span-enabled: %v vs %v", disabled, enabled)
	}
	t.Logf("8x8 direct compiled replay: disabled %v, span-enabled %v", disabled, enabled)
}

// TestObsHistogramDeterministicAcrossExecutors pins the export
// contract: N serial and N parallel replays of one program feed
// identical histogram *shapes* — same metric names, same counts —
// because a request's stage set depends only on the pipeline walked,
// never on the executor's interleaving, and the histogram's bucketing
// is a pure function of each observed value.
func TestObsHistogramDeterministicAcrossExecutors(t *testing.T) {
	pg := compileDirect8x8(t)
	const runs = 16
	sweep := func(serial bool) *obs.Registry {
		reg := obs.NewRegistry()
		arena := pg.AcquireArena()
		defer pg.ReleaseArena(arena)
		for i := 0; i < runs; i++ {
			req := reg.StartRequest("det")
			if _, err := pg.RunArena(arena, exec.Options{Serial: serial, Request: req}); err != nil {
				t.Fatal(err)
			}
			req.Finish()
		}
		return reg
	}
	for _, serial := range []bool{true, false} {
		reg := sweep(serial)
		s := reg.Snapshot()
		h, ok := s.Hists["stage.replay.ns"]
		if !ok {
			t.Fatalf("serial=%v: no stage.replay.ns histogram; have %v", serial, s.Hists)
		}
		if h.Count != runs {
			t.Errorf("serial=%v: replay stage count = %d, want %d", serial, h.Count, runs)
		}
		var sum int64
		for _, b := range h.Buckets {
			sum += b
		}
		if sum != h.Count {
			t.Errorf("serial=%v: bucket sum %d != count %d", serial, sum, h.Count)
		}
		if dh := s.Hists["stage.deliver.ns"]; dh.Count != runs {
			t.Errorf("serial=%v: deliver stage count = %d, want %d", serial, dh.Count, runs)
		}
		if rh, ok := s.Hists["req.det.ns"]; !ok || rh.Count != runs {
			t.Errorf("serial=%v: request histogram = %+v, want count %d", serial, rh, runs)
		}
	}
}

// TestDeliverStageOnBothReplayPaths: RunArena records the delivery
// pass as a deliver stage inside its replay stage, and ReplayInto,
// which records no replay stage, records the deliver stage alone.
func TestDeliverStageOnBothReplayPaths(t *testing.T) {
	pg := compileDirect8x8(t)
	arena := pg.NewArena()
	reg := obs.NewRegistry()
	for _, serial := range []bool{true, false} {
		req := reg.StartRequest("run-arena")
		if _, err := pg.RunArena(arena, exec.Options{Serial: serial, Request: req}); err != nil {
			t.Fatal(err)
		}
		req.Finish()
		st := req.Stages()
		if len(st) != 2 || st[0].Name != obs.StageReplay || st[1].Name != obs.StageDeliver ||
			st[1].Start < st[0].Start || st[1].End > st[0].End {
			t.Errorf("serial=%v: RunArena recorded %+v, want deliver inside replay", serial, st)
		}
		req = reg.StartRequest("replay-into")
		if err := pg.ReplayInto(arena, make([]int32, pg.DeliverySize()), exec.Options{Serial: serial, Request: req}); err != nil {
			t.Fatal(err)
		}
		req.Finish()
		if st := req.Stages(); len(st) != 1 || st[0].Name != obs.StageDeliver {
			t.Errorf("serial=%v: ReplayInto recorded %+v, want one deliver stage", serial, st)
		}
	}
}

func BenchmarkExecObsDisabled(b *testing.B) {
	pg := compileDirect8x8(b)
	arena := pg.NewArena()
	opt := exec.Options{Serial: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pg.RunArena(arena, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecObsEnabled(b *testing.B) {
	pg := compileDirect8x8(b)
	arena := pg.NewArena()
	reg := obs.NewRegistry()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := reg.StartRequest("bench")
		if _, err := pg.RunArena(arena, exec.Options{Serial: true, Request: req}); err != nil {
			b.Fatal(err)
		}
		req.Finish()
	}
}

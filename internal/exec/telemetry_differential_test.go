// Differential coverage for the telemetry layer: a parallel replay must
// emit exactly the serial replay's event stream, and a decoded program
// exactly the fresh compile's. Every run emits from the same serial
// post-pass, so these tests require the canonical streams
// (telemetry.Canonical) to be deep-equal, and the raw streams too.
package exec_test

import (
	"reflect"
	"testing"

	"torusx/internal/algorithm"
	"torusx/internal/costmodel"
	"torusx/internal/exec"
	"torusx/internal/schedule"
	"torusx/internal/telemetry"
	"torusx/internal/topology"
)

// telemetryShapes are the tori of the serial-vs-parallel stream
// comparison: square 2D, cubic 3D, and a rectangular shape whose
// shorter dimension idles groups early.
var telemetryShapes = [][]int{{8, 8}, {4, 4, 4}, {12, 8}}

// recordRun executes alg on dims with a fresh memory sink attached and
// returns the raw stream.
func recordRun(t *testing.T, alg string, dims []int, serial bool, workers int) []telemetry.Event {
	t.Helper()
	tor := topology.MustNew(dims...)
	b, err := algorithm.For(alg)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := b.BuildSchedule(tor)
	if err != nil {
		t.Skipf("%s rejects %v: %v", alg, dims, err)
	}
	sink := &telemetry.MemorySink{}
	rec := telemetry.New(sink, costmodel.T3D(64))
	if _, err := exec.Run(sc, exec.Options{Serial: serial, Workers: workers, Telemetry: rec}); err != nil {
		t.Fatal(err)
	}
	return sink.Events()
}

func TestTelemetryDifferentialSerialVsParallel(t *testing.T) {
	for _, alg := range []string{"proposed", "direct", "ring"} {
		for _, dims := range telemetryShapes {
			dims := dims
			t.Run(alg+"/"+topology.MustNew(dims...).String(), func(t *testing.T) {
				serial := recordRun(t, alg, dims, true, 0)
				if len(serial) == 0 {
					t.Fatal("serial run emitted nothing")
				}
				for _, workers := range []int{0, 1, 3} {
					parallel := recordRun(t, alg, dims, false, workers)
					if len(parallel) != len(serial) {
						t.Fatalf("workers=%d: %d events vs serial's %d",
							workers, len(parallel), len(serial))
					}
					a, b := telemetry.Canonical(serial), telemetry.Canonical(parallel)
					if !reflect.DeepEqual(a, b) {
						for i := range a {
							if !reflect.DeepEqual(a[i], b[i]) {
								t.Fatalf("workers=%d: canonical streams diverge at %d:\n serial  %+v\n parallel %+v",
									workers, i, a[i], b[i])
							}
						}
						t.Fatalf("workers=%d: canonical streams diverge", workers)
					}
				}
			})
		}
	}
}

// TestTelemetryDifferentialRawOrder pins the stronger property the
// post-pass design buys: even the RAW streams agree — emission is a
// serial walk in schedule order on both paths, not a per-worker race
// that Canonical has to repair.
func TestTelemetryDifferentialRawOrder(t *testing.T) {
	for _, dims := range telemetryShapes {
		serial := recordRun(t, "proposed", dims, true, 0)
		parallel := recordRun(t, "proposed", dims, false, 4)
		if len(serial) != len(parallel) {
			t.Fatalf("%v: length mismatch %d vs %d", dims, len(serial), len(parallel))
		}
		for i := range parallel {
			if !reflect.DeepEqual(serial[i], parallel[i]) {
				t.Fatalf("%v: raw stream diverges at event %d:\n serial   %+v\n parallel %+v",
					dims, i, serial[i], parallel[i])
			}
		}
	}
}

// recordProgram runs pg once with a fresh memory sink attached and
// returns the raw stream.
func recordProgram(t *testing.T, pg *exec.Program, opt exec.Options) []telemetry.Event {
	t.Helper()
	sink := &telemetry.MemorySink{}
	opt.Telemetry = telemetry.New(sink, costmodel.T3D(64))
	if _, err := pg.Run(opt); err != nil {
		t.Fatal(err)
	}
	return sink.Events()
}

// TestCompiledDifferentialTelemetry: a decoded program's stream — which
// re-plans the schedule from the builder and re-walks every route — must
// equal the fresh compile's, traced from the schedule it was compiled
// from, on both replay modes, and the stream's run counters must agree
// with the oracle's independently derived measure.
func TestCompiledDifferentialTelemetry(t *testing.T) {
	for _, alg := range []string{"proposed", "direct", "ring"} {
		for _, dims := range telemetryShapes {
			tor := topology.MustNew(dims...)
			b, err := algorithm.For(alg)
			if err != nil {
				t.Fatal(err)
			}
			sc, err := b.BuildSchedule(tor)
			if err != nil {
				continue // shape precondition
			}
			t.Run(alg+"/"+tor.String(), func(t *testing.T) {
				ref, err := oracleRun(sc, nil)
				if err != nil {
					t.Fatal(err)
				}
				pg, err := exec.Compile(sc, exec.Options{})
				if err != nil {
					t.Fatal(err)
				}
				enc, err := exec.EncodeProgram(pg, 0)
				if err != nil {
					t.Fatal(err)
				}
				dec, err := exec.DecodeProgram(enc, tor, 0)
				if err != nil {
					t.Fatal(err)
				}
				pg.SetSource(func() (*schedule.Schedule, error) { return sc, nil })
				dec.SetSource(func() (*schedule.Schedule, error) { return b.BuildSchedule(tor) })
				want := recordProgram(t, pg, exec.Options{Serial: true})
				counters := map[string]float64{
					"exec.steps":       float64(ref.Measure.Steps),
					"exec.blocks":      float64(ref.Measure.Blocks),
					"exec.hops":        float64(ref.Measure.Hops),
					"exec.max_sharing": float64(ref.MaxSharing),
				}
				for _, ev := range want {
					if v, ok := counters[ev.Name]; ok && ev.Kind == telemetry.CounterKind {
						if ev.Value != v {
							t.Errorf("%s = %v, oracle %v", ev.Name, ev.Value, v)
						}
						delete(counters, ev.Name)
					}
				}
				if len(counters) != 0 {
					t.Errorf("stream lacks run counters %v", counters)
				}
				for _, serial := range []bool{true, false} {
					got := recordProgram(t, dec, exec.Options{Serial: serial})
					a, b := telemetry.Canonical(want), telemetry.Canonical(got)
					if !reflect.DeepEqual(a, b) {
						t.Fatalf("decoded serial=%v: canonical stream diverges from the fresh compile's (%d vs %d events)",
							serial, len(got), len(want))
					}
				}
			})
		}
	}
}

// TestBytesMovedMatchesTelemetry: the Program.BytesMoved accessor, the
// run Result, and the telemetry stream's exec.bytes_moved counter must
// agree — one number, reported identically through every surface.
func TestBytesMovedMatchesTelemetry(t *testing.T) {
	tor := topology.MustNew(8, 8)
	for _, name := range []string{"direct", "factored", "proposed-sim"} {
		b, err := algorithm.For(name)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := b.BuildSchedule(tor)
		if err != nil {
			t.Fatal(err)
		}
		pg, err := exec.Compile(sc, exec.Options{})
		if err != nil {
			t.Fatal(err)
		}
		pg.SetSource(func() (*schedule.Schedule, error) { return sc, nil })
		want := pg.BytesMoved()
		if want <= 0 {
			t.Fatalf("%s: BytesMoved %d on a payload program", name, want)
		}
		sink := &telemetry.MemorySink{}
		rec := telemetry.New(sink, costmodel.T3D(64))
		res, err := pg.Run(exec.Options{Serial: true, Telemetry: rec})
		if err != nil {
			t.Fatal(err)
		}
		if res.BytesMoved != want {
			t.Fatalf("%s: Result.BytesMoved %d, accessor %d", name, res.BytesMoved, want)
		}
		found := false
		for _, ev := range sink.Events() {
			if ev.Kind == telemetry.CounterKind && ev.Name == "exec.bytes_moved" {
				found = true
				if ev.Value != float64(want) {
					t.Fatalf("%s: telemetry bytes_moved %v, accessor %d", name, ev.Value, want)
				}
			}
		}
		if !found {
			t.Fatalf("%s: no exec.bytes_moved counter in the stream", name)
		}
	}
}

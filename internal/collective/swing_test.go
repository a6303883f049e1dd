package collective_test

import (
	"math/rand"
	"testing"

	"torusx"
	"torusx/internal/collective"
	"torusx/internal/exec"
	"torusx/internal/oracle"
	"torusx/internal/schedule"
	"torusx/internal/topology"
)

// swingContrib builds a deterministic full contribution matrix.
func swingContrib(n int, rng *rand.Rand) [][]uint64 {
	contrib := make([][]uint64, n)
	for i := range contrib {
		contrib[i] = make([]uint64, n)
		for j := range contrib[i] {
			contrib[i][j] = uint64(rng.Intn(1 << 20))
		}
	}
	return contrib
}

// TestSwingAllReduceValues is the acceptance test: on an 8x8 torus the
// Swing allreduce leaves the exact column sums at every node.
func TestSwingAllReduceValues(t *testing.T) {
	for _, dims := range [][]int{{2}, {4}, {8}, {16}, {2, 2}, {4, 8}, {8, 8}, {2, 2, 2}, {4, 4, 4}} {
		tor := topology.MustNew(dims...)
		n := tor.Nodes()
		rng := rand.New(rand.NewSource(int64(n)))
		contrib := swingContrib(n, rng)
		want := make([]uint64, n)
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				want[j] += contrib[i][j]
			}
		}
		res, err := collective.SwingAllReduce(tor, contrib)
		if err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
		for i := 0; i < n; i++ {
			if len(res.Values[i]) != n {
				t.Fatalf("%v: node %d holds %d slots", dims, i, len(res.Values[i]))
			}
			for j := 0; j < n; j++ {
				if res.Values[i][j] != want[j] {
					t.Fatalf("%v: node %d slot %d = %d, want %d", dims, i, j, res.Values[i][j], want[j])
				}
			}
		}
		if err := oracle.Check(res.Schedule); err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
	}
}

// TestSwingMatchesRingAllReduce: both allreduce algorithms must
// compute identical results from one contribution matrix.
func TestSwingMatchesRingAllReduce(t *testing.T) {
	tor := topology.MustNew(4, 4)
	n := tor.Nodes()
	contrib := swingContrib(n, rand.New(rand.NewSource(9)))
	ring, _, err := torusx.AllReduce(tor, contrib)
	if err != nil {
		t.Fatal(err)
	}
	swing, err := collective.SwingAllReduce(tor, contrib)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if ring[j] != swing.Values[i][j] {
				t.Fatalf("node %d slot %d: ring %d != swing %d", i, j, ring[j], swing.Values[i][j])
			}
		}
	}
}

// TestSwingRejectsNonPowerOfTwo: the reference and the registry
// emitter reject the same shapes with the same error.
func TestSwingRejectsNonPowerOfTwo(t *testing.T) {
	for _, dims := range [][]int{{6}, {4, 6}, {3, 3}, {12, 8}} {
		tor := topology.MustNew(dims...)
		_, err := collective.SwingAllReduce(tor, swingContrib(tor.Nodes(), rand.New(rand.NewSource(2))))
		if err == nil {
			t.Errorf("%v accepted", dims)
			continue
		}
		_, emitErr := schedule.Collect(tor, collective.EmitSwing)
		if emitErr == nil || emitErr.Error() != err.Error() {
			t.Errorf("%v: emitter error %v, want %q", dims, emitErr, err)
		}
	}
	tor := topology.MustNew(4, 4)
	if _, err := collective.SwingAllReduce(tor, nil); err == nil {
		t.Error("missing contributions accepted")
	}
}

// TestSwingScheduleExecutes: the registry emitter's structural
// schedule runs through the shared executor.
func TestSwingScheduleExecutes(t *testing.T) {
	tor := topology.MustNew(8, 8)
	sc, err := schedule.Collect(tor, collective.EmitSwing)
	if err != nil {
		t.Fatal(err)
	}
	if err := oracle.Check(sc); err != nil {
		t.Fatal(err)
	}
	res, err := exec.Run(sc, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Measure.Steps != 12 {
		t.Fatalf("8x8 swing ran %d steps, want 12", res.Measure.Steps)
	}
	// Distance-1 pairings are exclusive; swung steps time-share and
	// must declare it.
	sawShared := false
	for _, ph := range sc.Phases {
		for _, st := range ph.Steps {
			sawShared = sawShared || st.Shared
		}
	}
	if !sawShared {
		t.Fatal("no swung step declared Shared on 8x8")
	}
}

package collective_test

import (
	"testing"

	"torusx/internal/algorithm"
	"torusx/internal/costmodel"
	"torusx/internal/exec"
	"torusx/internal/topology"
)

// programMeasure is the Measure of the registry's compiled alg program
// on tor: the reductions' cost comes from the executor alone.
func programMeasure(t *testing.T, alg string, tor *topology.Torus) costmodel.Measure {
	t.Helper()
	b, err := algorithm.For(alg)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := algorithm.BuildProgram(b, tor, exec.Options{})
	if err != nil {
		t.Fatalf("%s on %v: %v", alg, tor.Dims(), err)
	}
	return pg.Measure()
}

func TestReduceScatterStepCount(t *testing.T) {
	// sum(ai - 1) steps, like the ring allgather (they are duals).
	m := programMeasure(t, "reducescatter", topology.MustNew(8, 8))
	if m.Steps != 14 {
		t.Fatalf("steps = %d, want 14", m.Steps)
	}
	// Duality with allgather: dim-0 steps carry N/a0 = 8 slots,
	// dim-1 steps carry 1: mirrored volumes.
	if m.Blocks != 7*8+7*1 {
		t.Fatalf("blocks = %d, want 63", m.Blocks)
	}
}

// TestSwingStepCount pins the log-step property that motivates Swing:
// 2·Σ log2(a_i) steps total versus the ring's 2·Σ (a_i − 1).
func TestSwingStepCount(t *testing.T) {
	for _, tc := range []struct {
		dims []int
		want int
	}{
		{[]int{8}, 6},
		{[]int{8, 8}, 12},
		{[]int{16}, 8},
		{[]int{4, 4, 4}, 12},
		{[]int{1, 8}, 6}, // size-1 dimensions contribute nothing
	} {
		if m := programMeasure(t, "swing", topology.MustNew(tc.dims...)); m.Steps != tc.want {
			t.Errorf("%v: %d steps, want %d", tc.dims, m.Steps, tc.want)
		}
	}
}

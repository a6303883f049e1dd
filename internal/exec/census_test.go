package exec_test

import (
	"testing"

	"torusx/internal/baseline"
	"torusx/internal/exec"
	"torusx/internal/topology"
)

// ringCensus compiles ring on dims and returns its descriptor census
// and whether its block log recycles dead windows.
func ringCensus(t *testing.T, dims ...int) (exec.Census, bool) {
	t.Helper()
	pg, err := exec.Compile(mustCollect(topology.MustNew(dims...), baseline.EmitRing), exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := exec.DescriptorCensus(pg)
	t.Logf("ring@%v recycled=%v: %+v", dims, exec.ReusesWindows(pg), c)
	return c, exec.ReusesWindows(pg)
}

// TestRingDescriptorCensus16 pins ring@16x16's descriptors by shape,
// the census ROADMAP item 13 shrinks the recycled layout from (see
// EXPERIMENTS.md, "Blocks in flight" and "Compile a node class once"):
// under relative order, compiled as one node class. The program file is
// pinned byte for byte by TestProgramByteManifest; this names what its
// descriptors are.
func TestRingDescriptorCensus16(t *testing.T) {
	got, recycled := ringCensus(t, 16, 16)
	want := exec.Census{Moves: 22016, MovesCount1: 11264, MovesBlocklen1: 9472, Deliveries: 4096, DeliveriesBlocklen1: 2048, Classes: 1}
	if !recycled || got != want {
		t.Fatalf("ring@16x16 census %+v (recycled %v), want %+v recycled", got, recycled, want)
	}
}

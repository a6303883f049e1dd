package exchange

import (
	"testing"

	"torusx/internal/block"
	"torusx/internal/oracle"
	"torusx/internal/schedule"
	"torusx/internal/topology"
)

func TestPadDims(t *testing.T) {
	cases := []struct{ in, want []int }{
		{[]int{6, 5}, []int{8, 8}},
		{[]int{12, 8}, []int{12, 8}},
		{[]int{9, 7, 3}, []int{12, 8, 4}},
		{[]int{1, 1}, []int{4, 4}},
		{[]int{4, 1}, []int{4, 4}},
	}
	for _, tc := range cases {
		got := PadDims(tc.in)
		for i := range tc.want {
			if got[i] != tc.want[i] {
				t.Fatalf("PadDims(%v) = %v, want %v", tc.in, got, tc.want)
			}
		}
	}
}

func TestRunVirtualValidation(t *testing.T) {
	if _, _, err := VirtualTori([]int{9}); err == nil {
		t.Fatal("1D should be rejected")
	}
	if _, _, err := VirtualTori([]int{5, 9}); err == nil {
		t.Fatal("increasing dims should be rejected")
	}
	if _, _, err := VirtualTori([]int{6, 0}); err == nil {
		t.Fatal("zero-size dim should be rejected")
	}
	real, padded, err := VirtualTori([]int{6, 5})
	if err != nil {
		t.Fatal(err)
	}
	if real.Nodes() != 30 || padded.Nodes() != 64 {
		t.Fatalf("6x5: real %d nodes, padded %d; want 30 and 64", real.Nodes(), padded.Nodes())
	}
}

// realSchedule returns the real-node torus of dims, its padding, and
// the schedule oracle.RunSparse records for the real nodes' full matrix on
// the padded torus.
func realSchedule(t *testing.T, dims ...int) (real, padded *topology.Torus, sc *schedule.Schedule) {
	t.Helper()
	real = topology.MustNew(dims...)
	padded = topology.MustNew(PadDims(dims)...)
	var blocks []block.Block
	real.EachNode(func(_ topology.NodeID, o topology.Coord) {
		real.EachNode(func(_ topology.NodeID, d topology.Coord) {
			blocks = append(blocks, block.Block{Origin: padded.ID(o), Dest: padded.ID(d)})
		})
	})
	res, err := oracle.RunSparse(padded, blocks, oracle.Options{CheckSteps: true})
	if err != nil {
		t.Fatalf("%v: %v", dims, err)
	}
	return real, padded, res.Schedule
}

func TestHostLoadsExactShapeNoOverhead(t *testing.T) {
	// When dims are already multiples of four, padding is the
	// identity: no virtual nodes, no host overload.
	real, padded, sc := realSchedule(t, 8, 8)
	steps, maxLoad := HostLoads(real, padded, sc)
	if maxLoad != 1 {
		t.Fatalf("MaxHostLoad = %d, want 1", maxLoad)
	}
	if steps != sc.NumSteps() {
		t.Fatalf("serialized %d != steps %d", steps, sc.NumSteps())
	}
}

func TestHostLoadsOverloadBounded(t *testing.T) {
	// A 6x5 torus pads to 8x8. Clamping maps padded coords {5,6,7}->5
	// in dim 0 (3 tenants) and {4..7}->4 in dim 1 (4 tenants), so a
	// host carries at most 12 padded nodes and can never inject more
	// messages than that in one step.
	real, padded, sc := realSchedule(t, 6, 5)
	steps, maxLoad := HostLoads(real, padded, sc)
	if maxTenants := 3 * 4; maxLoad > maxTenants {
		t.Fatalf("MaxHostLoad = %d exceeds tenant bound %d", maxLoad, maxTenants)
	}
	if steps < sc.NumSteps() {
		t.Fatalf("serialized steps %d below padded steps %d", steps, sc.NumSteps())
	}
	// The figures aape -alg virtual prints for 6x5.
	if steps != 12 || maxLoad != 3 {
		t.Fatalf("HostLoads(6x5) = %d steps, max load %d; want 12 and 3", steps, maxLoad)
	}
}

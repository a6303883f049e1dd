package collective

import (
	"testing"

	"torusx/internal/oracle"
	"torusx/internal/topology"
)

// contribFn is a deterministic contribution: node i contributes
// i*1000003 + j to slot j.
func contribFn(n int) [][]uint64 {
	out := make([][]uint64, n)
	for i := range out {
		out[i] = make([]uint64, n)
		for j := range out[i] {
			out[i][j] = uint64(i*1000003 + j)
		}
	}
	return out
}

// wantSum is the expected reduced value of slot j over n nodes.
func wantSum(n, j int) uint64 {
	total := uint64(0)
	for i := 0; i < n; i++ {
		total += uint64(i*1000003 + j)
	}
	return total
}

func TestReduceScatterSums(t *testing.T) {
	for _, dims := range [][]int{{4, 4}, {8, 8}, {5, 3}, {4, 4, 4}, {6, 5}} {
		tor := topology.MustNew(dims...)
		n := tor.Nodes()
		res, err := ReduceScatter(tor, contribFn(n))
		if err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
		for i := 0; i < n; i++ {
			if len(res.Values[i]) != 1 || res.Owner[i][0] != topology.NodeID(i) {
				t.Fatalf("%v: node %d owns %v", dims, i, res.Owner[i])
			}
			if got, want := res.Values[i][0], wantSum(n, i); got != want {
				t.Fatalf("%v: node %d slot sum = %d, want %d", dims, i, got, want)
			}
		}
		if err := oracle.Check(res.Schedule); err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
	}
}

func TestReduceScatterValidation(t *testing.T) {
	tor := topology.MustNew(4, 4)
	if _, err := ReduceScatter(tor, nil); err == nil {
		t.Fatal("missing vectors should fail")
	}
	bad := contribFn(16)
	bad[3] = bad[3][:5]
	if _, err := ReduceScatter(tor, bad); err == nil {
		t.Fatal("short vector should fail")
	}
}

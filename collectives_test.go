package torusx

import (
	"fmt"
	"sort"
	"testing"

	"torusx/internal/algorithm"
	"torusx/internal/block"
	"torusx/internal/exec"
	"torusx/internal/topology"
)

func TestBroadcastAPI(t *testing.T) {
	tor, _ := NewTorus(6, 5) // arbitrary shape allowed
	rep, err := Broadcast(tor, 7)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Nodes != 30 || rep.Measure.Steps == 0 {
		t.Fatalf("report: %+v", rep)
	}
	if _, err := Broadcast(tor, 99); err == nil {
		t.Fatal("bad root should fail")
	}
}

func TestScatterGatherAPI(t *testing.T) {
	tor, _ := NewTorus(8, 8)
	// holds runs blocks through the shared sparse path, replays the
	// report's program and checks that node v ends with exactly want(v).
	holds := func(t *testing.T, tor *Torus, blocks []block.Block, want func(v int) []block.Block) {
		t.Helper()
		rep, err := sparseReport(tor, tor, blocks)
		if err != nil {
			t.Fatal(err)
		}
		res, err := rep.prog.Run(exec.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for v, buf := range res.Buffers {
			got := append([]block.Block(nil), buf.View()...)
			sort.Slice(got, func(i, j int) bool { return got[i].Origin < got[j].Origin })
			if w := want(v); fmt.Sprint(got) != fmt.Sprint(w) {
				t.Fatalf("node %d holds %v, want %v", v, got, w)
			}
		}
	}
	rows := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"scatter-delivers-from-root", func(t *testing.T) {
			for _, root := range []int{0, 17, 63} {
				if _, err := Scatter(tor, root); err != nil {
					t.Fatalf("root %d: %v", root, err)
				}
				var blocks []block.Block
				for d := 0; d < tor.Nodes(); d++ {
					blocks = append(blocks, block.Block{Origin: topology.NodeID(root), Dest: topology.NodeID(d)})
				}
				holds(t, tor, blocks, func(v int) []block.Block {
					return []block.Block{{Origin: topology.NodeID(root), Dest: topology.NodeID(v)}}
				})
			}
		}},
		{"gather-collects-at-root", func(t *testing.T) {
			tor, _ := NewTorus(12, 8)
			const root = 37
			if _, err := Gather(tor, root); err != nil {
				t.Fatal(err)
			}
			var blocks []block.Block
			for o := 0; o < tor.Nodes(); o++ {
				blocks = append(blocks, block.Block{Origin: topology.NodeID(o), Dest: root})
			}
			holds(t, tor, blocks, func(v int) []block.Block {
				if v != root {
					return nil
				}
				return blocks
			})
		}},
		{"same-steps-less-volume", func(t *testing.T) {
			s, err := Scatter(tor, 3)
			if err != nil {
				t.Fatal(err)
			}
			g, err := Gather(tor, 3)
			if err != nil {
				t.Fatal(err)
			}
			// Scatter and gather ride the full exchange schedule: same steps.
			if s.Measure.Steps != g.Measure.Steps {
				t.Fatalf("scatter %d steps, gather %d", s.Measure.Steps, g.Measure.Steps)
			}
			// A single root moves far fewer blocks than a full all-to-all.
			full, _ := Compare(Proposed, 8, 8)
			if s.Measure.Blocks >= full.Blocks {
				t.Fatalf("scatter volume %d should be below all-to-all %d", s.Measure.Blocks, full.Blocks)
			}
		}},
		{"root-out-of-range", func(t *testing.T) {
			for _, root := range []int{-1, 64, 999} {
				if _, err := Scatter(tor, root); err == nil {
					t.Fatalf("scatter root %d should fail", root)
				}
				if _, err := Gather(tor, root); err == nil {
					t.Fatalf("gather root %d should fail", root)
				}
			}
		}},
		{"not-multiple-of-four", func(t *testing.T) {
			bad, _ := NewTorus(10, 4)
			if _, err := Scatter(bad, 0); err == nil {
				t.Fatal("scatter on 10x4 should fail")
			}
			if _, err := Gather(bad, 0); err == nil {
				t.Fatal("gather on 10x4 should fail")
			}
		}},
	}
	for _, row := range rows {
		t.Run(row.name, row.run)
	}
}

func TestAllGatherAPI(t *testing.T) {
	tor, _ := NewTorus(4, 4)
	rep, err := AllGather(tor)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Measure.Steps != 3+3 {
		t.Fatalf("steps = %d, want 6", rep.Measure.Steps)
	}
}

func TestAllReduceAPI(t *testing.T) {
	tor, _ := NewTorus(4, 4)
	n := tor.Nodes()
	contrib := make([][]uint64, n)
	for i := range contrib {
		contrib[i] = make([]uint64, n)
		for j := range contrib[i] {
			contrib[i][j] = uint64(i + j)
		}
	}
	vals, rep, err := AllReduce(tor, contrib)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != n || rep.Measure.Steps == 0 {
		t.Fatalf("vals %d, report %+v", len(vals), rep)
	}
	for j := 0; j < n; j++ {
		want := uint64(0)
		for i := 0; i < n; i++ {
			want += uint64(i + j)
		}
		if vals[j] != want {
			t.Fatalf("slot %d = %d, want %d", j, vals[j], want)
		}
	}
	if _, _, err := AllReduce(tor, nil); err == nil {
		t.Fatal("bad contrib should fail")
	}
}

// TestAllReduce checks the reduced values and pins the cost: the ring
// reduce-scatter followed by the allgather, as literal rows.
func TestAllReduce(t *testing.T) {
	for _, row := range []struct {
		dims []int
		want Measure
	}{
		{[]int{4}, Measure{Steps: 6, Blocks: 6, Hops: 6}},
		{[]int{6}, Measure{Steps: 10, Blocks: 10, Hops: 10}},
		{[]int{4, 4}, Measure{Steps: 12, Blocks: 30, Hops: 12}},
		{[]int{8, 8}, Measure{Steps: 28, Blocks: 126, Hops: 28}},
		{[]int{6, 5}, Measure{Steps: 18, Blocks: 58, Hops: 18}},
		{[]int{12, 8}, Measure{Steps: 36, Blocks: 190, Hops: 36}},
		{[]int{4, 4, 4}, Measure{Steps: 18, Blocks: 126, Hops: 18}},
		{[]int{5, 3, 2}, Measure{Steps: 14, Blocks: 58, Hops: 14}},
		{[]int{16, 16}, Measure{Steps: 60, Blocks: 510, Hops: 60}},
	} {
		tor := topology.MustNew(row.dims...)
		n := tor.Nodes()
		contrib := make([][]uint64, n)
		for i := range contrib {
			contrib[i] = make([]uint64, n)
			for j := range contrib[i] {
				contrib[i][j] = uint64(i*1000003 + j)
			}
		}
		vals, rep, err := AllReduce(tor, contrib)
		if err != nil {
			t.Fatalf("%v: %v", row.dims, err)
		}
		if len(vals) != n {
			t.Fatalf("%v: %d slots, want %d", row.dims, len(vals), n)
		}
		for j := 0; j < n; j++ {
			want := uint64(0)
			for i := 0; i < n; i++ {
				want += uint64(i*1000003 + j)
			}
			if vals[j] != want {
				t.Fatalf("%v: slot %d = %d, want %d", row.dims, j, vals[j], want)
			}
		}
		if rep.Measure != row.want {
			t.Errorf("%v: measure %+v, want %+v", row.dims, rep.Measure, row.want)
		}
	}
}

// TestAllReducePropagatesValidation pins the error each malformed
// input gets, and that AllReduce rejects it before it looks a program
// up: on a shape no other test compiles, a rejected call compiles
// nothing.
func TestAllReducePropagatesValidation(t *testing.T) {
	tor := topology.MustNew(7, 3)
	n := tor.Nodes()
	vectors := func(count, slots int) [][]uint64 {
		out := make([][]uint64, count)
		for i := range out {
			out[i] = make([]uint64, slots)
		}
		return out
	}
	nilRow := vectors(n, n)
	nilRow[3] = nil
	for _, tc := range []struct {
		name    string
		contrib [][]uint64
		want    string
	}{
		{"missing vectors", nil, "collective: 0 contribution vectors for 21 nodes"},
		{"short vectors", vectors(n, n-1), "collective: node 0 contributes 20 slots, want 21"},
		{"nil row", nilRow, "collective: node 3 contributes 0 slots, want 21"},
		{"n+1 vectors", vectors(n+1, n), "collective: 22 contribution vectors for 21 nodes"},
	} {
		before := algorithm.CacheStats().Compiles
		_, _, err := AllReduce(tor, tc.contrib)
		if err == nil || err.Error() != tc.want {
			t.Fatalf("%s: error %v, want %q", tc.name, err, tc.want)
		}
		if after := algorithm.CacheStats().Compiles; after != before {
			t.Fatalf("%s: a rejected call compiled %d programs", tc.name, after-before)
		}
	}
}

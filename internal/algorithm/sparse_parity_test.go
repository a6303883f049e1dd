package algorithm_test

import (
	"fmt"
	"slices"
	"testing"

	"torusx/internal/algorithm"
	"torusx/internal/block"
	"torusx/internal/costmodel"
	"torusx/internal/exchange"
	"torusx/internal/exec"
	"torusx/internal/oracle"
	"torusx/internal/topology"
	"torusx/internal/traffic"
)

// simulatorRules derives from a RunSparse run the measure the compiled
// sparse program of the same blocks must report, and the number of
// empty steps the simulator recorded:
//   - Blocks and Hops are the simulator's (an empty step adds to
//     neither);
//   - Steps are the simulator's less its empty steps, which the
//     compiled program drops;
//   - RearrangedBlocks sums, over the charged phase boundaries of the
//     recorded schedule, the blocks the busiest node holds there, each
//     node starting with its row of blocks.
func simulatorRules(res *oracle.Result, blocks []block.Block) (costmodel.Measure, int) {
	held := make([]int, res.Torus.Nodes())
	for _, b := range blocks {
		held[b.Origin]++
	}
	rearranged, empty := 0, 0
	for _, ph := range res.Schedule.Phases {
		if ph.Rearrange > 0 {
			rearranged += (ph.Rearrange*slices.Max(held) + len(held) - 1) / len(held)
		}
		for _, st := range ph.Steps {
			if len(st.Transfers) == 0 {
				empty++
			}
			for _, tr := range st.Transfers {
				held[tr.Src] -= tr.Blocks
				held[tr.Dst] += tr.Blocks
			}
		}
	}
	c := res.Counters
	return costmodel.Measure{
		Steps:            c.Steps - empty,
		Blocks:           c.SumMaxBlocks,
		Hops:             c.SumMaxHops,
		RearrangedBlocks: rearranged,
	}, empty
}

// parityCase is one row of the sparse parity wall: blocks on padded,
// and for a real-node matrix of the virtual-node extension, the real
// torus whose hosts the padded schedule serializes onto.
type parityCase struct {
	name         string
	real, padded *topology.Torus
	blocks       []block.Block
	full         bool
}

// parityCases lists the wall's rows: on every native shape the canned
// matrices, scatter and gather at the first and last node, the empty
// and the full matrix; then the full real-node matrix of each padded
// shape.
func parityCases(t *testing.T) []parityCase {
	var cases []parityCase
	for _, dims := range [][]int{{4, 4}, {8, 8}, {12, 8}, {16, 16}, {4, 4, 4}, {8, 4, 4}} {
		tor := topology.MustNew(dims...)
		n := tor.Nodes()
		add := func(name string, m traffic.Matrix) {
			cases = append(cases, parityCase{name: tor.String() + "/" + name, padded: tor, blocks: m.Blocks(), full: m.IsFull()})
		}
		for _, spec := range traffic.CannedSpecs() {
			m, err := traffic.ParseSpec(spec, n)
			if err != nil {
				t.Fatal(err)
			}
			add(spec, m)
		}
		for _, root := range []int{0, n - 1} {
			var scatter, gather []block.Block
			for v := 0; v < n; v++ {
				scatter = append(scatter, block.Block{Origin: topology.NodeID(root), Dest: topology.NodeID(v)})
				gather = append(gather, block.Block{Origin: topology.NodeID(v), Dest: topology.NodeID(root)})
			}
			add(fmt.Sprintf("scatter@%d", root), mustMatrix(t, n, scatter))
			add(fmt.Sprintf("gather@%d", root), mustMatrix(t, n, gather))
		}
		add("empty", mustMatrix(t, n, nil))
		add("full", traffic.Full(n))
	}
	for _, dims := range [][]int{{6, 5}, {9, 1}, {2, 2}, {1, 1}, {13, 1, 1}, {21, 5}} {
		real := topology.MustNew(dims...)
		padded := topology.MustNew(exchange.PadDims(dims)...)
		var blocks []block.Block
		real.EachNode(func(_ topology.NodeID, o topology.Coord) {
			real.EachNode(func(_ topology.NodeID, d topology.Coord) {
				blocks = append(blocks, block.Block{Origin: padded.ID(o), Dest: padded.ID(d)})
			})
		})
		cases = append(cases, parityCase{name: real.String() + "/arbitrary", real: real, padded: padded,
			blocks: mustMatrix(t, padded.Nodes(), blocks).Blocks(), full: real.Nodes() == padded.Nodes()})
	}
	return cases
}

func mustMatrix(t *testing.T, n int, blocks []block.Block) traffic.Matrix {
	t.Helper()
	m, err := traffic.New(n, blocks)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSparseProgramMatchesSimulator holds the proposed exchange's
// compiled sparse program to the block-level simulator (RunSparse) on
// every parity row, under the rules of simulatorRules. The charge is
// at least the simulator's per-node figure, the most one node
// rearranges over the run, and equal to it on the full matrix, where
// every node holds N blocks at every boundary. On the real-node rows
// the host serialization of the program's schedule is the simulator
// schedule's, less its empty steps.
func TestSparseProgramMatchesSimulator(t *testing.T) {
	b := builderFor(t, "proposed-sim")
	for _, c := range parityCases(t) {
		res, err := oracle.RunSparse(c.padded, c.blocks, oracle.Options{CheckSteps: true})
		if err != nil {
			t.Fatalf("%s: simulator: %v", c.name, err)
		}
		want, empty := simulatorRules(res, c.blocks)
		pg, err := algorithm.BuildSparseProgram(b, c.padded, mustMatrix(t, c.padded.Nodes(), c.blocks), exec.Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if _, err := pg.Run(exec.Options{}); err != nil {
			t.Fatalf("%s: replay: %v", c.name, err)
		}
		got := pg.Measure()
		if got != want {
			t.Errorf("%s: program %+v, simulator rules %+v (%d empty steps)", c.name, got, want, empty)
		}
		perNode := res.Counters.RearrangedBlocksMaxPerNode
		if got.RearrangedBlocks < perNode || c.full && got.RearrangedBlocks != perNode {
			t.Errorf("%s: rearranged %d, simulator's busiest node %d", c.name, got.RearrangedBlocks, perNode)
		}
		if c.real == nil {
			continue
		}
		sc, err := pg.Schedule()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		simSteps, simLoad := exchange.HostLoads(c.real, c.padded, res.Schedule)
		steps, load := exchange.HostLoads(c.real, c.padded, sc)
		if sc.NumSteps() == 0 {
			simLoad = 0 // every simulator step was empty
		}
		if steps != simSteps-empty || load != simLoad {
			t.Errorf("%s: host loads %d steps, max %d; simulator %d steps (%d empty), max %d",
				c.name, steps, load, simSteps, empty, simLoad)
		}
	}
}

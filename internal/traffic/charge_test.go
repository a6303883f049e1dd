package traffic_test

import (
	"testing"

	"torusx/internal/algorithm"
	"torusx/internal/block"
	"torusx/internal/schedule"
	"torusx/internal/topology"
	"torusx/internal/traffic"
)

// TestPruneChargesBusiestNode pins Prune's rearrangement charge: a
// phase opening while the busiest node holds h blocks is charged
// ceil(Rearrange·h/N), every node starting with its row of the matrix;
// a charged phase is kept when pruning leaves it no steps; and pruning
// to the full matrix keeps every sparse-capable builder's charge and
// step count.
func TestPruneChargesBusiestNode(t *testing.T) {
	tor := topology.MustNew(4, 4)
	n := tor.Nodes()
	move := func(src, dst int, ids ...int32) schedule.Step {
		return schedule.Step{Transfers: []schedule.Transfer{{
			Src: topology.NodeID(src), Dst: topology.NodeID(dst), Dim: 1, Dir: topology.Pos, Hops: 1,
			Blocks: len(ids), Payload: ids,
		}}}
	}
	id := func(o, d int) int32 { return int32(o*n + d) }
	// Node 0 starts holding every block of the matrix, its self block
	// included, and hands one on in phase a and one in phase d. Phase
	// b's only step carries a block outside the matrix, so the prune
	// leaves b no steps but keeps its charge; phase c, uncharged and
	// left empty, vanishes.
	m, err := traffic.New(n, []block.Block{{Origin: 0, Dest: 0}, {Origin: 0, Dest: 1}, {Origin: 0, Dest: 2}})
	if err != nil {
		t.Fatal(err)
	}
	sc := &schedule.Schedule{Fabric: tor, Phases: []schedule.Phase{
		{Name: "a", Rearrange: n, Steps: []schedule.Step{move(0, 1, id(0, 1))}},
		{Name: "b", Rearrange: 5, Steps: []schedule.Step{move(2, 3, id(2, 3))}},
		{Name: "c", Steps: []schedule.Step{move(2, 3, id(2, 3))}},
		{Name: "d", Rearrange: n, Steps: []schedule.Step{move(0, 2, id(0, 2))}},
	}}
	pruned, err := traffic.Prune(sc, m)
	if err != nil {
		t.Fatal(err)
	}
	// a opens with node 0 holding 3 blocks: charged 3. b and d open
	// with node 0 holding 2: ceil(5·2/16) = 1 and 2.
	var got []string
	charge := map[string]int{}
	for _, ph := range pruned.Phases {
		got = append(got, ph.Name)
		charge[ph.Name] = ph.Rearrange
	}
	if len(got) != 3 || charge["a"] != 3 || charge["b"] != 1 || charge["d"] != 2 {
		t.Fatalf("pruned phases %v, charges %v; want a, b, d charged 3, 1, 2", got, charge)
	}
	if steps := pruned.NumSteps(); steps != 2 {
		t.Fatalf("pruned schedule keeps %d steps, want 2", steps)
	}

	// The full matrix changes nothing: every node holds N blocks at
	// every boundary of every builder's schedule.
	fabrics := []topology.Fabric{
		topology.MustNew(8, 8), topology.MustNew(16, 16), topology.MustNew(12, 8),
		topology.MustNew(4, 4, 4), topology.MustNewDragonfly(2, 3), topology.MustNew(6, 5),
	}
	cells := 0
	for _, f := range fabrics {
		for _, name := range algorithm.SparseSupporting(f) {
			b, err := algorithm.For(name)
			if err != nil {
				t.Fatal(err)
			}
			dense, err := b.BuildSchedule(f)
			if err != nil {
				continue // a shape precondition, such as logtime on 12x8
			}
			full, err := algorithm.SparseSchedule(b, f, traffic.Full(f.Nodes()))
			if err != nil {
				t.Fatalf("%s@%s: %v", name, f.Fingerprint(), err)
			}
			if full.RearrangedBlocks() != dense.RearrangedBlocks() || full.NumSteps() != dense.NumSteps() {
				t.Errorf("%s@%s: full-matrix prune charges %d over %d steps, dense schedule %d over %d",
					name, f.Fingerprint(), full.RearrangedBlocks(), full.NumSteps(), dense.RearrangedBlocks(), dense.NumSteps())
			}
			cells++
		}
	}
	t.Logf("%d builder cells keep their charge and steps under the full matrix", cells)
}

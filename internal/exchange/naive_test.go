package exchange

import (
	"errors"
	"testing"

	"torusx/internal/block"
	"torusx/internal/oracle"
	"torusx/internal/schedule"
	"torusx/internal/topology"
)

func TestGenerateNaiveHasContention(t *testing.T) {
	sc, err := oracle.GenerateNaive(topology.MustNew(12, 12))
	if err != nil {
		t.Fatal(err)
	}
	err = oracle.Check(sc)
	var ce *schedule.ContentionError
	if !errors.As(err, &ce) {
		t.Fatalf("naive schedule should have link contention, got %v", err)
	}
	// The contention must be in a group phase; the quad/bit pairwise
	// phases stay clean even without the direction split.
	for _, ph := range sc.Phases {
		if ph.Name == "naive-quad" || ph.Name == "naive-bit" {
			for si := range ph.Steps {
				if err := oracle.CheckStep(sc.Fabric, ph.Name, si, &ph.Steps[si]); err != nil {
					t.Fatalf("%s should be contention-free: %v", ph.Name, err)
				}
			}
		}
	}
}

func TestGenerateNaiveSameVolumes(t *testing.T) {
	// The ablation changes only link usage, not the amount of data
	// moved or the number of steps (for square tori where all ring
	// lengths coincide).
	naive, err := oracle.GenerateNaive(topology.MustNew(12, 12))
	if err != nil {
		t.Fatal(err)
	}
	prop, err := schedule.Collect(topology.MustNew(12, 12), EmitStructural)
	if err != nil {
		t.Fatal(err)
	}
	if naive.NumSteps() != prop.NumSteps() {
		t.Fatalf("steps: naive %d vs proposed %d", naive.NumSteps(), prop.NumSteps())
	}
	if naive.SumMaxBlocks() != prop.SumMaxBlocks() {
		t.Fatalf("blocks: naive %d vs proposed %d", naive.SumMaxBlocks(), prop.SumMaxBlocks())
	}
	if naive.SumMaxHops() != prop.SumMaxHops() {
		t.Fatalf("hops: naive %d vs proposed %d", naive.SumMaxHops(), prop.SumMaxHops())
	}
}

func TestGenerateNaiveValidation(t *testing.T) {
	if _, err := oracle.GenerateNaive(topology.MustNew(16)); err == nil {
		t.Fatal("1D should be rejected")
	}
	if _, err := oracle.GenerateNaive(topology.MustNew(10, 8)); err == nil {
		t.Fatal("bad shape should be rejected")
	}
}

// TestUniversalRouting: the schedule is an oblivious router — a block
// placed at ANY node (not just its origin) is still delivered to its
// destination, because every routing predicate depends only on the
// holder's coordinates and the block's destination.
func TestUniversalRouting(t *testing.T) {
	tor := topology.MustNew(12, 8)
	n := tor.Nodes()
	// Build buffers where block (o, d) starts at node (o*13+d*7) mod n
	// instead of at its origin o.
	bufs := make([]*oracle.Buffer, n)
	for i := range bufs {
		bufs[i] = oracle.NewBuffer(0)
	}
	for o := 0; o < n; o++ {
		for d := 0; d < n; d++ {
			holder := (o*13 + d*7) % n
			bufs[holder].Add(block.Block{Origin: topology.NodeID(o), Dest: topology.NodeID(d)})
		}
	}
	res, err := oracle.RunWithBuffers(tor, bufs, oracle.Options{CheckSteps: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, buf := range res.Buffers {
		if buf.Len() == 0 {
			continue
		}
		for _, b := range buf.View() {
			if int(b.Dest) != i {
				t.Fatalf("node %d holds misrouted block %v", i, b)
			}
		}
	}
	total := 0
	for _, buf := range res.Buffers {
		total += buf.Len()
	}
	if total != n*n {
		t.Fatalf("delivered %d blocks, want %d", total, n*n)
	}
}

package schedule

import (
	"testing"

	"torusx/internal/topology"
)

func TestStepAggregates(t *testing.T) {
	s := Step{Transfers: []Transfer{
		{Src: 0, Dst: 1, Dim: 0, Dir: topology.Pos, Hops: 1, Blocks: 5},
		{Src: 2, Dst: 3, Dim: 0, Dir: topology.Pos, Hops: 4, Blocks: 9},
	}}
	if s.MaxBlocks() != 9 {
		t.Fatalf("MaxBlocks = %d", s.MaxBlocks())
	}
	if s.MaxHops() != 4 {
		t.Fatalf("MaxHops = %d", s.MaxHops())
	}
	if s.TotalBlocks() != 14 {
		t.Fatalf("TotalBlocks = %d", s.TotalBlocks())
	}
	empty := Step{}
	if empty.MaxBlocks() != 0 || empty.MaxHops() != 0 || empty.TotalBlocks() != 0 {
		t.Fatal("empty step aggregates should be zero")
	}
}

func TestScheduleAggregates(t *testing.T) {
	tor := topology.MustNew(8, 8)
	sc := &Schedule{
		Fabric: tor,
		Phases: []Phase{
			{Name: "p1", Steps: []Step{
				{Transfers: []Transfer{{Src: 0, Dst: 4, Dim: 1, Dir: topology.Pos, Hops: 4, Blocks: 10}}},
				{Transfers: []Transfer{{Src: 0, Dst: 4, Dim: 1, Dir: topology.Pos, Hops: 4, Blocks: 6}}},
			}},
			{Name: "p2", Steps: []Step{
				{Transfers: []Transfer{{Src: 0, Dst: 2, Dim: 0, Dir: topology.Pos, Hops: 2, Blocks: 8}}},
			}},
		},
	}
	if sc.NumSteps() != 3 {
		t.Fatalf("NumSteps = %d", sc.NumSteps())
	}
	if sc.SumMaxBlocks() != 24 {
		t.Fatalf("SumMaxBlocks = %d", sc.SumMaxBlocks())
	}
	if sc.SumMaxHops() != 10 {
		t.Fatalf("SumMaxHops = %d", sc.SumMaxHops())
	}
	visited := 0
	sc.EachStep(func(p *Phase, si int, s *Step) { visited++ })
	if visited != 3 {
		t.Fatalf("EachStep visited %d", visited)
	}
}

func TestLinkUtilization(t *testing.T) {
	tor := topology.MustNew(8) // 16 unidirectional links
	sc := &Schedule{
		Fabric: tor,
		Phases: []Phase{{Name: "p", Steps: []Step{
			// 4 links used of 16 -> 0.25.
			{Transfers: []Transfer{{Src: 0, Dst: 4, Dim: 0, Dir: topology.Pos, Hops: 4, Blocks: 1}}},
			// 8 links used -> 0.5.
			{Transfers: []Transfer{
				{Src: 0, Dst: 4, Dim: 0, Dir: topology.Pos, Hops: 4, Blocks: 1},
				{Src: 4, Dst: 0, Dim: 0, Dir: topology.Neg, Hops: 4, Blocks: 1},
			}},
		}}},
	}
	got := sc.LinkUtilization()
	if got < 0.374 || got > 0.376 {
		t.Fatalf("LinkUtilization = %g, want 0.375", got)
	}
	empty := &Schedule{Fabric: tor}
	if empty.LinkUtilization() != 0 {
		t.Fatal("empty schedule should have zero utilization")
	}
}

func TestDestinationChanges(t *testing.T) {
	tor := topology.MustNew(8, 8)
	sc := &Schedule{
		Fabric: tor,
		Phases: []Phase{{Name: "p", Steps: []Step{
			{Transfers: []Transfer{{Src: 0, Dst: 1, Hops: 1, Blocks: 1, Dim: 1, Dir: topology.Pos}}},
			{Transfers: []Transfer{{Src: 0, Dst: 1, Hops: 1, Blocks: 1, Dim: 1, Dir: topology.Pos}}}, // same dest: no change
			{Transfers: []Transfer{{Src: 0, Dst: 2, Hops: 2, Blocks: 1, Dim: 1, Dir: topology.Pos}}}, // change
			{Transfers: []Transfer{
				{Src: 0, Dst: 1, Hops: 1, Blocks: 1, Dim: 1, Dir: topology.Pos},  // change
				{Src: 5, Dst: 6, Hops: 1, Blocks: 1, Dim: 1, Dir: topology.Pos}}, // first: no change
			},
		}}},
	}
	if got := sc.DestinationChanges(); got != 2 {
		t.Fatalf("DestinationChanges = %d, want 2", got)
	}
	if got := sc.MaxDestinationChangesPerNode(); got != 2 {
		t.Fatalf("MaxDestinationChangesPerNode = %d, want 2", got)
	}
}

// TestTransferString pins the textual form: endpoints, the route as
// one leg per segment, and the block count. Payloads are not printed.
func TestTransferString(t *testing.T) {
	for _, c := range []struct {
		tr   Transfer
		want string
	}{
		{Transfer{Src: 1, Dst: 5, Dim: 0, Dir: topology.Pos, Hops: 4, Blocks: 12}, "1->5 dim0+h4 b12"},
		{Transfer{Src: 9, Dst: 1, Dim: 1, Dir: topology.Neg, Hops: 1, Blocks: 3, Payload: []int32{4, 7, 9}}, "9->1 dim1-h1 b3"},
		{Transfer{Src: 2, Dst: 2, Dim: 0, Dir: topology.Pos, Hops: 0, Blocks: 1}, "2->2 dim0+h0 b1"},
		{Transfer{Src: 3, Dst: 9, Dim: 1, Dir: topology.Neg, Hops: 2, Blocks: 4,
			Segs: []Seg{{Dim: 1, Dir: topology.Neg, Hops: 2}, {Dim: 0, Dir: topology.Pos, Hops: 1}}}, "3->9 dim1-h2,dim0+h1 b4"},
		{Transfer{Src: 0, Dst: 7, Dim: 0, Dir: topology.Pos, Hops: 3, Blocks: 2,
			Segs: []Seg{{Dim: 0, Dir: topology.Pos, Hops: 3}, {Dim: 1, Dir: topology.Pos, Hops: 2}, {Dim: 2, Dir: topology.Neg, Hops: 1}}}, "0->7 dim0+h3,dim1+h2,dim2-h1 b2"},
	} {
		if got := c.tr.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
}

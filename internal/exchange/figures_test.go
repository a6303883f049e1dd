package exchange

import (
	"testing"

	"torusx/internal/oracle"
	"torusx/internal/plan"
	"torusx/internal/topology"
)

// TestFigure1Walkthrough reproduces the 12x12 walk-through of Figure 1:
// node P(0,0) (group 00) scatters its 9 block groups (144 blocks) in
// two 2-step ring phases, then exchanges within its 4x4 submesh in two
// 2-step phases. The figure's per-step transmitted block counts are
// 96, 48 (phase 1: BG columns 2-3, then 3), 96, 48 (phase 2: BG rows),
// then 72 per step in phases 3 and 4 (half of 144).
func TestFigure1Walkthrough(t *testing.T) {
	res := cachedRun(t, []int{12, 12})
	node := topology.NodeID(0) // our (0,0) == paper's P(0,0)

	wantSends := map[string][]int{
		"group-1": {96, 48},
		"group-2": {96, 48},
		"quad":    {72, 72},
		"bit":     {72, 72},
	}
	for _, ph := range res.Schedule.Phases {
		want := wantSends[ph.Name]
		if len(ph.Steps) != len(want) {
			t.Fatalf("phase %s: %d steps, want %d", ph.Name, len(ph.Steps), len(want))
		}
		for si, st := range ph.Steps {
			got := -1
			for _, tr := range st.Transfers {
				if tr.Src == node {
					got = tr.Blocks
				}
			}
			if got != want[si] {
				t.Fatalf("phase %s step %d: P(0,0) sends %d blocks, want %d",
					ph.Name, si+1, got, want[si])
			}
		}
	}

	// Figure 1(d): in phase 1, P(0,0) has (r+c) mod 4 = 0 and sends
	// along +c to P(0,4) in every step — our coord (4,0), id 48.
	wantDest := res.Torus.ID(topology.Coord{4, 0})
	for _, st := range res.Schedule.Phases[0].Steps {
		for _, tr := range st.Transfers {
			if tr.Src == node && tr.Dst != wantDest {
				t.Fatalf("phase 1: P(0,0) sends to %d, want %d", tr.Dst, wantDest)
			}
		}
	}

	// Figure 1(h): after phases 1-2, all blocks gathered in each group
	// 00 node have "the same marking": origins in group 00, destinations
	// in the node's own submesh.
	mid := mustRun(t, []int{12, 12}, oracle.Options{StopAfter: oracle.StageGroup})
	if err := oracle.ProxyPlacement(mid.Torus, mid.Buffers); err != nil {
		t.Fatal(err)
	}
	// Specifically for P(0,0): 144 blocks, 16 per group-00 member.
	perOrigin := make(map[topology.NodeID]int)
	for _, b := range mid.Buffers[0].View() {
		perOrigin[b.Origin]++
	}
	if len(perOrigin) != 9 {
		t.Fatalf("P(0,0) holds blocks from %d origins, want 9 (the 3x3 subtorus)", len(perOrigin))
	}
	for origin, cnt := range perOrigin {
		if cnt != 16 {
			t.Fatalf("P(0,0) holds %d blocks from %d, want 16 (one per SM00 node)", cnt, origin)
		}
		oc := mid.Torus.CoordOf(origin)
		if oc[0]%4 != 0 || oc[1]%4 != 0 {
			t.Fatalf("origin %v not in group 00", oc)
		}
	}
}

// TestFigure2Patterns3D reproduces the 12x12x12 phase patterns of
// Figure 2: pattern A in even X-Y planes and pattern C (Z moves) in
// odd planes during phase 1; pattern B everywhere in phase 2; the
// complements in phase 3; and the quad/bit step structure of phases
// 4-5. Checked directly against an independent re-encoding of the
// paper's IF-tables over all 1728 nodes.
func TestFigure2Patterns3D(t *testing.T) {
	tor := topology.MustNew(12, 12, 12)
	tor.EachNode(func(id topology.NodeID, c topology.Coord) {
		x, y, z := c[0], c[1], c[2]
		moves := plan.GroupPhases(c)
		s := (x + y) % 4

		// Phase 1 (Figure 2(a)).
		switch {
		case z%2 == 0: // pattern A
			wantA := [4]plan.Move{
				{Dim: 0, Dir: topology.Pos}, {Dim: 1, Dir: topology.Pos},
				{Dim: 0, Dir: topology.Neg}, {Dim: 1, Dir: topology.Neg},
			}[s]
			if moves[0] != wantA {
				t.Fatalf("P%v phase 1: %v, want %v", c, moves[0], wantA)
			}
		case z%4 == 1:
			if moves[0] != (plan.Move{Dim: 2, Dir: topology.Pos}) {
				t.Fatalf("P%v phase 1: %v, want +Z", c, moves[0])
			}
		default: // z%4 == 3
			if moves[0] != (plan.Move{Dim: 2, Dir: topology.Neg}) {
				t.Fatalf("P%v phase 1: %v, want -Z", c, moves[0])
			}
		}

		// Phase 2 (Figure 2(b)): pattern B for every node.
		wantB := [4]plan.Move{
			{Dim: 1, Dir: topology.Pos}, {Dim: 0, Dir: topology.Pos},
			{Dim: 1, Dir: topology.Neg}, {Dim: 0, Dir: topology.Neg},
		}[s]
		if moves[1] != wantB {
			t.Fatalf("P%v phase 2: %v, want %v", c, moves[1], wantB)
		}

		// Phase 3 (Figure 2(c)): complements of phase 1.
		switch {
		case z%4 == 0:
			if moves[2] != (plan.Move{Dim: 2, Dir: topology.Pos}) {
				t.Fatalf("P%v phase 3: %v, want +Z", c, moves[2])
			}
		case z%4 == 2:
			if moves[2] != (plan.Move{Dim: 2, Dir: topology.Neg}) {
				t.Fatalf("P%v phase 3: %v, want -Z", c, moves[2])
			}
		default: // odd planes follow pattern A
			wantA := [4]plan.Move{
				{Dim: 0, Dir: topology.Pos}, {Dim: 1, Dir: topology.Pos},
				{Dim: 0, Dir: topology.Neg}, {Dim: 1, Dir: topology.Neg},
			}[s]
			if moves[2] != wantA {
				t.Fatalf("P%v phase 3: %v, want %v", c, moves[2], wantA)
			}
		}

		// Phases 4-5 (Figures 2(d)-(i)): every dimension exactly once,
		// distance 2 with own-quad-bit sign, then fixed X,Y,Z order at
		// distance 1.
		seen := map[int]bool{}
		for s4 := 1; s4 <= 3; s4++ {
			m := plan.QuadMove(c, s4)
			if seen[m.Dim] {
				t.Fatalf("P%v phase 4 repeats dim %d", c, m.Dim)
			}
			seen[m.Dim] = true
			wantDir := topology.Pos
			if (c[m.Dim]%4)/2 == 1 {
				wantDir = topology.Neg
			}
			if m.Dir != wantDir {
				t.Fatalf("P%v phase 4 step %d: dir %v, want %v", c, s4, m.Dir, wantDir)
			}
		}
		for s5 := 1; s5 <= 3; s5++ {
			m := plan.BitMove(c, s5)
			if m.Dim != s5-1 {
				t.Fatalf("P%v phase 5 step %d: dim %d", c, s5, m.Dim)
			}
			wantDir := topology.Pos
			if c[m.Dim]%2 == 1 {
				wantDir = topology.Neg
			}
			if m.Dir != wantDir {
				t.Fatalf("P%v phase 5 step %d: dir %v, want %v", c, s5, m.Dir, wantDir)
			}
		}
	})
}

// TestFigure3BlockCounts reproduces Figure 3: the blocks transmitted
// by P(0,0,0) in each step of phases 1-3 of a 12x12x12 exchange.
// In step s of each phase it sends a slab of (12-4s)*144 blocks:
// 1152 in step 1, 576 in step 2.
func TestFigure3BlockCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("12x12x12 run is expensive")
	}
	res := cachedRun(t, []int{12, 12, 12})
	node := topology.NodeID(0)
	for p := 0; p < 3; p++ {
		ph := res.Schedule.Phases[p]
		if len(ph.Steps) != 2 {
			t.Fatalf("phase %d: %d steps, want 2", p+1, len(ph.Steps))
		}
		want := []int{1152, 576}
		for si, st := range ph.Steps {
			got := -1
			for _, tr := range st.Transfers {
				if tr.Src == node {
					got = tr.Blocks
				}
			}
			if got != want[si] {
				t.Fatalf("phase %d step %d: P(0,0,0) sends %d, want %d", p+1, si+1, got, want[si])
			}
		}
	}
	// Figure 3 also fixes the destinations: P(4,0,0) in phase 1,
	// P(0,4,0) in phase 2, P(0,0,4) in phase 3.
	wantDst := []topology.Coord{{4, 0, 0}, {0, 4, 0}, {0, 0, 4}}
	for p := 0; p < 3; p++ {
		for _, st := range res.Schedule.Phases[p].Steps {
			for _, tr := range st.Transfers {
				if tr.Src == node && tr.Dst != res.Torus.ID(wantDst[p]) {
					t.Fatalf("phase %d: P(0,0,0) sends to %v, want %v",
						p+1, res.Torus.CoordOf(tr.Dst), wantDst[p])
				}
			}
		}
	}
}

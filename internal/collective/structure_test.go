package collective

import (
	"fmt"
	"math/rand"
	"testing"

	"torusx/internal/schedule"
	"torusx/internal/topology"
)

// broadcast collects EmitBroadcast's schedule from root on t.
func broadcast(t *topology.Torus, root topology.NodeID) (*schedule.Schedule, error) {
	return schedule.Collect(t, func(t *topology.Torus, s schedule.Sink) error {
		return EmitBroadcast(t, root, s)
	})
}

// sameSteps fails t unless got has want's lattice, phase names and
// rearrangements, and step by step the same Shared flag and the same
// transfers in the same order: source, destination, route and blocks.
func sameSteps(t *testing.T, want, got *schedule.Schedule) {
	t.Helper()
	if got.Lattice != want.Lattice || len(got.Phases) != len(want.Phases) {
		t.Fatalf("lattice %d, %d phases; want lattice %d, %d phases", got.Lattice, len(got.Phases), want.Lattice, len(want.Phases))
	}
	for p, wph := range want.Phases {
		gph := got.Phases[p]
		if gph.Name != wph.Name || gph.Rearrange != wph.Rearrange || len(gph.Steps) != len(wph.Steps) {
			t.Fatalf("phase %d is %q (rearrange %d, %d steps), want %q (rearrange %d, %d steps)",
				p, gph.Name, gph.Rearrange, len(gph.Steps), wph.Name, wph.Rearrange, len(wph.Steps))
		}
		for s, wst := range wph.Steps {
			gst := gph.Steps[s]
			if gst.Shared != wst.Shared || len(gst.Transfers) != len(wst.Transfers) {
				t.Fatalf("%s step %d: shared %v, %d transfers; want shared %v, %d transfers",
					wph.Name, s, gst.Shared, len(gst.Transfers), wst.Shared, len(wst.Transfers))
			}
			for k, w := range wst.Transfers {
				g := gst.Transfers[k]
				if g.Src != w.Src || g.Dst != w.Dst || g.Dim != w.Dim || g.Dir != w.Dir || g.Hops != w.Hops ||
					g.Blocks != w.Blocks || g.Segs != nil || g.Payload != nil {
					t.Fatalf("%s step %d transfer %d: %+v, want %+v", wph.Name, s, k, g, w)
				}
			}
		}
	}
}

// TestReductionEmittersMatchReferences holds EmitReduceScatter and
// EmitSwing to the value reductions step by step, on TestAllReduce's
// and TestSwingAllReduceValues's shapes, and checks that every
// reference still leaves the exact column sums. It also proves the
// rules the emitters count blocks by: each ring reduce-scatter chunk's
// chain visits every node of its ring exactly once, ending at the
// chunk's owner, and swingSets halves disjointly on every power-of-two
// ring from 2 to 1024.
func TestReductionEmittersMatchReferences(t *testing.T) {
	for _, dims := range [][]int{{4}, {6}, {4, 4}, {8, 8}, {6, 5}, {12, 8}, {4, 4, 4}, {5, 3, 2}, {16, 16}} {
		tor := topology.MustNew(dims...)
		t.Run(fmt.Sprintf("reducescatter/%v", tor), func(t *testing.T) {
			n := tor.Nodes()
			ref, err := ReduceScatter(tor, contribFn(n))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if got, want := ref.Values[i][0], wantSum(n, i); got != want {
					t.Fatalf("node %d slot sum = %d, want %d", i, got, want)
				}
			}
			sc, err := schedule.Collect(tor, EmitReduceScatter)
			if err != nil {
				t.Fatal(err)
			}
			sameSteps(t, ref.Schedule, sc)
			checkChains(t, tor, sc)
		})
	}
	for _, dims := range [][]int{{2}, {4}, {8}, {16}, {2, 2}, {4, 8}, {8, 8}, {2, 2, 2}, {4, 4, 4}} {
		tor := topology.MustNew(dims...)
		t.Run(fmt.Sprintf("swing/%v", tor), func(t *testing.T) {
			n := tor.Nodes()
			rng := rand.New(rand.NewSource(int64(n)))
			contrib := make([][]uint64, n)
			want := make([]uint64, n)
			for i := range contrib {
				contrib[i] = make([]uint64, n)
				for j := range contrib[i] {
					contrib[i][j] = rng.Uint64()
					want[j] += contrib[i][j]
				}
			}
			ref, err := SwingAllReduce(tor, contrib)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if ref.Values[i][j] != want[j] {
						t.Fatalf("node %d slot %d = %d, want %d", i, j, ref.Values[i][j], want[j])
					}
				}
			}
			sc, err := schedule.Collect(tor, EmitSwing)
			if err != nil {
				t.Fatal(err)
			}
			sameSteps(t, ref.Schedule, sc)
		})
	}
	t.Run("swingSets", func(t *testing.T) {
		for q := 1; q <= 10; q++ {
			if _, err := swingSets(1<<q, q); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestReplicationEmittersMatchReferences holds EmitAllGather to the
// origin-list simulation step by step, on TestAllReduce's shapes and
// two with size-1 dimensions, and checks that every reference run
// leaves every node exactly one block of every origin. It checks
// EmitBroadcast's collected schedule directly, from every root of 4x4
// and from root 0 on the same shapes.
func TestReplicationEmittersMatchReferences(t *testing.T) {
	shapes := [][]int{{4}, {6}, {4, 4}, {8, 8}, {6, 5}, {12, 8}, {4, 4, 4}, {5, 3, 2}, {16, 16}, {7, 1, 3}, {1, 4}}
	for _, dims := range shapes {
		tor := topology.MustNew(dims...)
		t.Run(fmt.Sprintf("allgather/%v", tor), func(t *testing.T) {
			ref, have := allGatherReference(tor)
			if err := verifyReplication(tor, have, allOrigins(tor)); err != nil {
				t.Fatal(err)
			}
			sc, err := schedule.Collect(tor, EmitAllGather)
			if err != nil {
				t.Fatal(err)
			}
			sameSteps(t, ref, sc)
		})
		t.Run(fmt.Sprintf("broadcast/%v", tor), func(t *testing.T) {
			sc, err := broadcast(tor, 0)
			if err != nil {
				t.Fatal(err)
			}
			checkBroadcast(t, tor, 0, sc)
		})
	}
	t.Run("broadcast/4x4/every-root", func(t *testing.T) {
		tor := topology.MustNew(4, 4)
		for root := topology.NodeID(0); int(root) < tor.Nodes(); root++ {
			sc, err := broadcast(tor, root)
			if err != nil {
				t.Fatal(err)
			}
			checkBroadcast(t, tor, root, sc)
		}
	})
}

// checkBroadcast fails t unless sc floods root's block to every node
// of tor: every transfer carries the one block, every sender held it
// before the step, every node but root receives it exactly once, and
// every node ends holding it.
func checkBroadcast(t *testing.T, tor *topology.Torus, root topology.NodeID, sc *schedule.Schedule) {
	t.Helper()
	have := make([]bool, tor.Nodes())
	have[root] = true
	for _, ph := range sc.Phases {
		for s, st := range ph.Steps {
			for _, tr := range st.Transfers {
				if tr.Blocks != 1 || !have[tr.Src] {
					t.Fatalf("root %d, %s step %d: node %d sends %d blocks, holding the block: %v",
						root, ph.Name, s, tr.Src, tr.Blocks, have[tr.Src])
				}
			}
			for _, tr := range st.Transfers {
				if have[tr.Dst] {
					t.Fatalf("root %d, %s step %d: node %d receives the block a second time", root, ph.Name, s, tr.Dst)
				}
				have[tr.Dst] = true
			}
		}
	}
	for i, h := range have {
		if !h {
			t.Fatalf("root %d: node %d never receives the block", root, i)
		}
	}
}

// checkChains follows, in each reduce-scatter phase of sc, every
// chunk's chain: the chunk node owner owns starts at owner's +1
// neighbour, and in each step moves on to the destination of the
// transfer its current holder sends. The chain must stay in owner's
// ring, visit each of its nodes exactly once and end at owner.
func checkChains(t *testing.T, tor *topology.Torus, sc *schedule.Schedule) {
	t.Helper()
	n := tor.Nodes()
	seen, visit := make([]int, n), 0
	for _, ph := range sc.Phases {
		dim := ph.Steps[0].Transfers[0].Dim
		if len(ph.Steps)+1 != tor.Dim(dim) {
			t.Fatalf("%s: %d steps on a ring of %d", ph.Name, len(ph.Steps), tor.Dim(dim))
		}
		next := make([][]topology.NodeID, len(ph.Steps))
		for s, st := range ph.Steps {
			next[s] = make([]topology.NodeID, n)
			for i := range next[s] {
				next[s][i] = -1
			}
			for _, tr := range st.Transfers {
				next[s][tr.Src] = tr.Dst
			}
		}
		for owner := 0; owner < n; owner++ {
			home := tor.CoordOf(topology.NodeID(owner))
			visit++
			v := tor.MoveID(topology.NodeID(owner), dim, 1)
			seen[v] = visit
			for s := range ph.Steps {
				if v = next[s][v]; v < 0 {
					t.Fatalf("%s step %d: chunk of node %d stalls", ph.Name, s, owner)
				}
				c := tor.CoordOf(v)
				c[dim] = home[dim]
				if !c.Equal(home) || seen[v] == visit {
					t.Fatalf("%s step %d: chunk of node %d visits node %d out of its ring or twice", ph.Name, s, owner, v)
				}
				seen[v] = visit
			}
			if v != topology.NodeID(owner) {
				t.Fatalf("%s: chunk of node %d ends at node %d", ph.Name, owner, v)
			}
		}
	}
}

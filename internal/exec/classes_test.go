package exec_test

import (
	"bytes"
	"slices"
	"testing"

	"torusx/internal/algorithm"
	"torusx/internal/exec"
	"torusx/internal/schedule"
	"torusx/internal/topology"
)

// latticeCells are the registry cells whose builders declare a lattice.
var latticeCells = []string{"factored", "logtime", "proposed-sim", "ring"}

// wantClasses is the node classes a declaring cell compiles with on
// tor: one for period 1, and for the proposed exchange's period 4 the
// product of min(4, dimension) — every node its own class when each
// dimension is 4.
func wantClasses(alg string, tor *topology.Torus) int {
	if alg != "proposed-sim" {
		return 1
	}
	c := 1
	for i := 0; i < tor.NDims(); i++ {
		c *= min(4, tor.Dim(i))
	}
	return c
}

// compileBoth compiles the schedule emit builds on tor whole and
// streamed, on deep copies, and returns both files and programs.
func compileBoth(t *testing.T, sc *schedule.Schedule) (whole, streamed []byte, pw, ps *exec.Program) {
	t.Helper()
	pw, err := exec.Compile(cloneSchedule(sc), exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ps, err = exec.CompileStream(sc.Fabric, emitter(cloneSchedule(sc)), exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	whole, _ = exec.EncodeProgram(pw, 0)
	streamed, _ = exec.EncodeProgram(ps, 0)
	return whole, streamed, pw, ps
}

// classIdentity holds every declaring cell on each shape to its
// singleton-class compile: Compile and CompileStream write the file a
// compile forced to singleton classes writes, with the relative flag,
// and plan with the lattice's classes; the program delivers.
func classIdentity(t *testing.T, shapes [][]int) {
	for _, dims := range shapes {
		tor := topology.MustNew(dims...)
		for _, alg := range latticeCells {
			b, err := algorithm.For(alg)
			if err != nil {
				t.Fatal(err)
			}
			sc, err := b.BuildSchedule(tor)
			if err != nil {
				continue // shape precondition, e.g. logtime on 12x8
			}
			t.Run(alg+"@"+tor.String(), func(t *testing.T) {
				whole, streamed, pw, ps := compileBoth(t, sc)
				restore := exec.ForceSingletonClasses()
				sWhole, sStreamed, sw, _ := compileBoth(t, sc)
				restore()
				if !bytes.Equal(whole, sWhole) || !bytes.Equal(streamed, sStreamed) || !bytes.Equal(whole, streamed) {
					t.Fatalf("class compile writes other bytes than singleton classes (whole %v, streamed %v, whole=streamed %v)",
						bytes.Equal(whole, sWhole), bytes.Equal(streamed, sStreamed), bytes.Equal(whole, streamed))
				}
				if whole[6]&0x08 == 0 {
					t.Fatalf("flags %#x lack relative order", whole[6])
				}
				want := wantClasses(alg, tor)
				if got := pw.Stats().Classes; got != want || ps.Stats().Classes != want {
					t.Fatalf("classes %d (streamed %d), want %d", got, ps.Stats().Classes, want)
				}
				if got := sw.Stats().Classes; got != tor.Nodes() {
					t.Fatalf("forced singleton classes %d, want %d", got, tor.Nodes())
				}
				if _, err := pw.Run(exec.Options{}); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestClassCompileByteIdentity: a class compile writes the bytes of a
// compile forced to singleton classes, whole and streamed, on square,
// rectangular, benchmark and cubic shapes, a ring, and shapes with
// dimensions of size 1 and odd sizes.
func TestClassCompileByteIdentity(t *testing.T) {
	classIdentity(t, [][]int{{8, 8}, {12, 8}, {16, 16}, {4, 4, 4}, {9}, {8, 1}, {1, 8}, {3, 5, 2}, {2, 1, 6}})
}

// translateID translates block id by vector vec: origin and
// destination each by vec's coordinates.
func translateID(tor *topology.Torus, id int32, vec topology.NodeID) int32 {
	n := tor.Nodes()
	add := func(a int) int {
		ca, cv := tor.CoordOf(topology.NodeID(a)), tor.CoordOf(vec)
		for i := range ca {
			ca[i] = (ca[i] + cv[i]) % tor.Dim(i)
		}
		return int(tor.ID(ca))
	}
	return int32(add(int(id)/n)*n + add(int(id)%n))
}

// latticeMutation is a schedule edit and what a compile of the edited
// schedule must give.
type latticeMutation struct {
	name string
	// edit changes sc, ring@8x8's schedule.
	edit func(tor *topology.Torus, sc *schedule.Schedule)
	// classes is the node classes the edited schedule compiles with; 0
	// when it must be rejected.
	classes int
}

// TestLatticeMutations edits ring@8x8's schedule, which declares the
// lattice of period 1, or replaces it. An edit that breaks the lattice
// falls back to singleton classes: a valid result is the
// forced-singleton compile's bytes, and an invalid one is rejected with
// the error of a compile of the edited schedule with no lattice, in
// matrix order. An edit that keeps the lattice keeps one class, and an
// invalid one is still rejected with that error.
func TestLatticeMutations(t *testing.T) {
	tor := topology.MustNew(8, 8)
	step := func(sc *schedule.Schedule, si int) *schedule.Step { return &sc.Phases[0].Steps[si] }
	from := func(s *schedule.Step, src int) *schedule.Transfer {
		for i := range s.Transfers {
			if int(s.Transfers[i].Src) == src {
				return &s.Transfers[i]
			}
		}
		t.Fatalf("no transfer from node %d", src)
		return nil
	}
	for _, m := range []latticeMutation{
		{name: "move one block of one node's payload", classes: 0, edit: func(_ *topology.Torus, sc *schedule.Schedule) {
			s := step(sc, 0)
			a, b := from(s, 5), from(s, 6)
			b.Payload = append(b.Payload, a.Payload[0])
			a.Payload = a.Payload[1:]
			a.Blocks, b.Blocks = len(a.Payload), len(b.Payload)
		}},
		{name: "swap one block of one node's payload", classes: 0, edit: func(tor *topology.Torus, sc *schedule.Schedule) {
			// Node 5 sends its own block in place of one it must send.
			from(step(sc, 0), 5).Payload[0] = int32(5*tor.Nodes() + 5)
		}},
		{name: "drop one translate of one transfer", classes: 0, edit: func(_ *topology.Torus, sc *schedule.Schedule) {
			s := step(sc, 1)
			s.Transfers = slices.DeleteFunc(s.Transfers, func(tr schedule.Transfer) bool { return tr.Src == 9 })
		}},
		{name: "reorder one node's payload", classes: 1, edit: func(_ *topology.Torus, sc *schedule.Schedule) {
			slices.Reverse(from(step(sc, 2), 13).Payload)
		}},
		{name: "declare a lattice the schedule breaks", classes: 64, edit: func(tor *topology.Torus, sc *schedule.Schedule) {
			// The proposed exchange, valid, repeats only every 4 nodes.
			b, err := algorithm.For("proposed-sim")
			if err != nil {
				t.Fatal(err)
			}
			p, err := b.BuildSchedule(tor)
			if err != nil {
				t.Fatal(err)
			}
			p.Lattice = 1
			*sc = *p
		}},
		{name: "drop one block everywhere, translated", classes: 0, edit: func(tor *topology.Torus, sc *schedule.Schedule) {
			s := step(sc, 3)
			x := from(s, 0).Payload[0]
			for i := range s.Transfers {
				tr := &s.Transfers[i]
				own := translateID(tor, x, tr.Src)
				tr.Payload = slices.DeleteFunc(tr.Payload, func(id int32) bool { return id == own })
				tr.Blocks = len(tr.Payload)
			}
		}},
	} {
		t.Run(m.name, func(t *testing.T) {
			b, err := algorithm.For("ring")
			if err != nil {
				t.Fatal(err)
			}
			sc, err := b.BuildSchedule(tor)
			if err != nil {
				t.Fatal(err)
			}
			m.edit(tor, sc)
			pg, err := exec.Compile(cloneSchedule(sc), exec.Options{})
			plain := cloneSchedule(sc)
			plain.Lattice = 0
			_, plainErr := exec.Compile(plain, exec.Options{})
			if m.classes == 0 {
				if err == nil || plainErr == nil || err.Error() != plainErr.Error() {
					t.Fatalf("err = %v, want the matrix-order compile's %v", err, plainErr)
				}
				return
			}
			if err != nil || plainErr != nil {
				t.Fatalf("err = %v, matrix-order err = %v, want both nil", err, plainErr)
			}
			if got := pg.Stats().Classes; got != m.classes {
				t.Fatalf("classes %d, want %d", got, m.classes)
			}
			restore := exec.ForceSingletonClasses()
			ps, err := exec.Compile(cloneSchedule(sc), exec.Options{})
			restore()
			if err != nil {
				t.Fatal(err)
			}
			enc, _ := exec.EncodeProgram(pg, 0)
			single, _ := exec.EncodeProgram(ps, 0)
			if !bytes.Equal(enc, single) {
				t.Fatal("bytes differ from the forced-singleton compile")
			}
			if err := exec.CheckDescriptorPlan(pg, sc); err != nil {
				t.Fatal(err)
			}
			if _, err := pg.Run(exec.Options{}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

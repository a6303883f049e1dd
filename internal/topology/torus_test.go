package topology

import (
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(); err == nil {
		t.Fatal("New() with no dims should fail")
	}
	if _, err := New(4, 0); err == nil {
		t.Fatal("New(4,0) should fail")
	}
	if _, err := New(4, -3); err == nil {
		t.Fatal("New(4,-3) should fail")
	}
	tor, err := New(12, 8)
	if err != nil {
		t.Fatalf("New(12,8): %v", err)
	}
	if tor.Nodes() != 96 {
		t.Fatalf("Nodes() = %d, want 96", tor.Nodes())
	}
	if tor.NDims() != 2 {
		t.Fatalf("NDims() = %d, want 2", tor.NDims())
	}
	if tor.Dim(0) != 12 || tor.Dim(1) != 8 {
		t.Fatalf("Dim mismatch: %d,%d", tor.Dim(0), tor.Dim(1))
	}
	if got := tor.String(); got != "12x8" {
		t.Fatalf("String() = %q, want 12x8", got)
	}
}

// TestMaxNodesBoundary: the largest square torus under MaxNodes is
// accepted and its last node round-trips through the 32-bit NodeID;
// one row more, or a dragonfly past MaxNodes, is rejected.
func TestMaxNodesBoundary(t *testing.T) {
	tor, err := New(46340, 46340)
	if err != nil {
		t.Fatalf("New(46340, 46340): %v", err)
	}
	if n := tor.Nodes(); n != 2_147_395_600 || n > MaxNodes {
		t.Fatalf("46340x46340 has %d nodes", n)
	}
	last := NodeID(tor.Nodes() - 1)
	if c := tor.CoordOf(last); !c.Equal(Coord{46339, 46339}) {
		t.Fatalf("CoordOf(%d) = %v", last, c)
	}
	if id := tor.ID(Coord{46339, 46339}); id != last {
		t.Fatalf("ID of the last coordinate = %d, want %d", id, last)
	}
	if _, err := New(46341, 46341); err == nil {
		t.Fatal("New(46341, 46341) past MaxNodes accepted")
	}
	d, err := NewDragonfly(1, 46340)
	if err != nil {
		t.Fatalf("NewDragonfly(1, 46340): %v", err)
	}
	if last := NodeID(d.Nodes() - 1); d.ID(d.Group(last), d.Router(last)) != last {
		t.Fatalf("dragonfly node %d does not round-trip", last)
	}
	for _, km := range [][2]int{{1, 46341}, {2, 1 << 15}, {1 << 31, 1}} {
		if _, err := NewDragonfly(km[0], km[1]); err == nil {
			t.Fatalf("NewDragonfly(%d, %d) past MaxNodes accepted", km[0], km[1])
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew(0) should panic")
		}
	}()
	MustNew(0)
}

func TestIDCoordRoundTrip(t *testing.T) {
	for _, dims := range [][]int{{4}, {4, 4}, {12, 8}, {8, 8, 4}, {4, 4, 4, 4}} {
		tor := MustNew(dims...)
		for id := 0; id < tor.Nodes(); id++ {
			c := tor.CoordOf(NodeID(id))
			if !tor.InBounds(c) {
				t.Fatalf("%v: CoordOf(%d)=%v out of bounds", dims, id, c)
			}
			if back := tor.ID(c); back != NodeID(id) {
				t.Fatalf("%v: round trip %d -> %v -> %d", dims, id, c, back)
			}
		}
	}
}

func TestIDRowMajorOrder(t *testing.T) {
	tor := MustNew(3, 4)
	// Row-major: coordinate (r,c) -> id r*4+c.
	if id := tor.ID(Coord{1, 2}); id != 6 {
		t.Fatalf("ID(1,2) = %d, want 6", id)
	}
	if id := tor.ID(Coord{2, 3}); id != 11 {
		t.Fatalf("ID(2,3) = %d, want 11", id)
	}
}

func TestWrapAndMove(t *testing.T) {
	tor := MustNew(12, 8)
	if got := tor.Wrap(0, -1); got != 11 {
		t.Fatalf("Wrap(0,-1) = %d, want 11", got)
	}
	if got := tor.Wrap(1, 8); got != 0 {
		t.Fatalf("Wrap(1,8) = %d, want 0", got)
	}
	if got := tor.Wrap(1, -17); got != 7 {
		t.Fatalf("Wrap(1,-17) = %d, want 7", got)
	}
	c := Coord{11, 0}
	m := tor.Move(c, 0, 1)
	if m[0] != 0 || m[1] != 0 {
		t.Fatalf("Move wrap failed: %v", m)
	}
	if c[0] != 11 {
		t.Fatal("Move must not mutate its argument")
	}
	m2 := tor.Move(c, 1, -4)
	if m2[1] != 4 {
		t.Fatalf("Move(-4) = %v, want col 4", m2)
	}
	if id := tor.MoveID(tor.ID(Coord{0, 7}), 1, 1); id != tor.ID(Coord{0, 0}) {
		t.Fatalf("MoveID wrap failed: %d", id)
	}
}

func TestRingDist(t *testing.T) {
	tor := MustNew(12)
	a, b := Coord{2}, Coord{10}
	if d := tor.RingDist(a, b, 0, Pos); d != 8 {
		t.Fatalf("RingDist + = %d, want 8", d)
	}
	if d := tor.RingDist(a, b, 0, Neg); d != 4 {
		t.Fatalf("RingDist - = %d, want 4", d)
	}
	if d := tor.RingDist(a, a, 0, Pos); d != 0 {
		t.Fatalf("RingDist self = %d, want 0", d)
	}
}

func TestMinHops(t *testing.T) {
	tor := MustNew(12, 8)
	if d := tor.MinHops(Coord{0, 0}, Coord{6, 4}); d != 10 {
		t.Fatalf("MinHops = %d, want 10", d)
	}
	if d := tor.MinHops(Coord{0, 0}, Coord{11, 7}); d != 2 {
		t.Fatalf("MinHops wrap = %d, want 2", d)
	}
	if d := tor.MinHops(Coord{3, 3}, Coord{3, 3}); d != 0 {
		t.Fatalf("MinHops self = %d, want 0", d)
	}
}

func TestPathLinks(t *testing.T) {
	tor := MustNew(8, 8)
	links := tor.PathLinks(Coord{0, 6}, 1, Pos, 4)
	if len(links) != 4 {
		t.Fatalf("PathLinks len = %d, want 4", len(links))
	}
	wantFrom := []NodeID{tor.ID(Coord{0, 6}), tor.ID(Coord{0, 7}), tor.ID(Coord{0, 0}), tor.ID(Coord{0, 1})}
	for i, l := range links {
		if l.From != wantFrom[i] || l.Dim != 1 || l.Dir != Pos {
			t.Fatalf("link %d = %v, want from %d dim 1 +", i, l, wantFrom[i])
		}
	}
	if got := tor.PathLinks(Coord{0, 0}, 0, Neg, 0); len(got) != 0 {
		t.Fatalf("zero-hop path should have no links, got %v", got)
	}
}

func TestAllLinksCount(t *testing.T) {
	// A k-ary n-torus with all dims >= 2 has 2*n*N unidirectional links.
	tor := MustNew(4, 4, 4)
	if got, want := len(tor.AllLinks()), 2*3*64; got != want {
		t.Fatalf("AllLinks = %d, want %d", got, want)
	}
	// Dimensions of size 1 contribute no links.
	line := MustNew(5, 1)
	if got, want := len(line.AllLinks()), 2*5; got != want {
		t.Fatalf("AllLinks(5x1) = %d, want %d", got, want)
	}
}

func TestEachNodeVisitsAllOnce(t *testing.T) {
	tor := MustNew(4, 8)
	seen := make(map[NodeID]bool)
	tor.EachNode(func(id NodeID, c Coord) {
		if seen[id] {
			t.Fatalf("node %d visited twice", id)
		}
		if tor.ID(c) != id {
			t.Fatalf("coord %v does not match id %d", c, id)
		}
		seen[id] = true
	})
	if len(seen) != 32 {
		t.Fatalf("visited %d nodes, want 32", len(seen))
	}
}

func TestCoordHelpers(t *testing.T) {
	c := Coord{1, 2, 3}
	d := c.Clone()
	d[0] = 9
	if c[0] != 1 {
		t.Fatal("Clone aliases storage")
	}
	if !c.Equal(Coord{1, 2, 3}) {
		t.Fatal("Equal false negative")
	}
	if c.Equal(Coord{1, 2}) || c.Equal(Coord{1, 2, 4}) {
		t.Fatal("Equal false positive")
	}
	if got := c.String(); got != "(1,2,3)" {
		t.Fatalf("String = %q", got)
	}
	if Pos.String() != "+" || Neg.String() != "-" {
		t.Fatal("Direction.String mismatch")
	}
}

// Property: RingDist forward + RingDist backward is 0 or the ring size.
func TestRingDistProperty(t *testing.T) {
	tor := MustNew(12, 8, 4)
	f := func(ai, bi uint) bool {
		a := tor.CoordOf(NodeID(ai % uint(tor.Nodes())))
		b := tor.CoordOf(NodeID(bi % uint(tor.Nodes())))
		for dim := 0; dim < tor.NDims(); dim++ {
			fwd := tor.RingDist(a, b, dim, Pos)
			bwd := tor.RingDist(a, b, dim, Neg)
			sum := fwd + bwd
			if a[dim] == b[dim] {
				if sum != 0 {
					return false
				}
			} else if sum != tor.Dim(dim) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: moving RingDist(a,b) hops in the given direction reaches b.
func TestMoveReachesRingDist(t *testing.T) {
	tor := MustNew(16, 8)
	f := func(ai, bi uint, dirBit bool) bool {
		a := tor.CoordOf(NodeID(ai % uint(tor.Nodes())))
		b := tor.CoordOf(NodeID(bi % uint(tor.Nodes())))
		dir := Pos
		if dirBit {
			dir = Neg
		}
		for dim := 0; dim < tor.NDims(); dim++ {
			d := tor.RingDist(a, b, dim, dir)
			got := tor.Move(a, dim, int(dir)*d)
			if got[dim] != b[dim] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

package topology

import (
	"testing"
	"testing/quick"
)

func TestGroupAssignment2D(t *testing.T) {
	tor := MustNew(12, 12)
	// Paper Figure 1: P(0,0), P(0,4), P(0,8), P(4,0) ... all in group 00.
	g00 := tor.Group(Coord{0, 0})
	for _, c := range []Coord{{0, 4}, {0, 8}, {4, 0}, {4, 4}, {4, 8}, {8, 0}, {8, 4}, {8, 8}} {
		if tor.Group(c) != g00 {
			t.Fatalf("node %v not in group 00", c)
		}
	}
	if tor.Group(Coord{1, 0}) == g00 || tor.Group(Coord{0, 1}) == g00 {
		t.Fatal("nodes outside group 00 misclassified")
	}
	// Group id encoding: group ij = 4i + j.
	if g := tor.Group(Coord{2, 3}); g != GroupID(2*4+3) {
		t.Fatalf("Group(2,3) = %d, want 11", g)
	}
}

func TestGroupResiduesRoundTrip(t *testing.T) {
	tor := MustNew(8, 8, 4)
	for g := 0; g < tor.NumGroups(); g++ {
		res := tor.GroupResidues(GroupID(g))
		if len(res) != 3 {
			t.Fatalf("residues len = %d", len(res))
		}
		c := Coord(res) // the residue itself is a coordinate of the group
		if tor.Group(c) != GroupID(g) {
			t.Fatalf("round trip failed for group %d: residues %v", g, res)
		}
	}
}

func TestNumGroups(t *testing.T) {
	if g := MustNew(12, 12).NumGroups(); g != 16 {
		t.Fatalf("2D NumGroups = %d, want 16", g)
	}
	if g := MustNew(8, 8, 8).NumGroups(); g != 64 {
		t.Fatalf("3D NumGroups = %d, want 64", g)
	}
	if g := MustNew(4, 4, 4, 4).NumGroups(); g != 256 {
		t.Fatalf("4D NumGroups = %d, want 256", g)
	}
}

func TestGroupMembersFormSubtorus(t *testing.T) {
	tor := MustNew(12, 8)
	for g := 0; g < tor.NumGroups(); g++ {
		members := tor.GroupMembers(GroupID(g))
		if len(members) != (12/4)*(8/4) {
			t.Fatalf("group %d has %d members, want 6", g, len(members))
		}
		res := tor.GroupResidues(GroupID(g))
		for _, id := range members {
			c := tor.CoordOf(id)
			for i := range c {
				if c[i]%4 != res[i] {
					t.Fatalf("group %d member %v has wrong residue", g, c)
				}
			}
		}
	}
}

func TestGroupsPartitionNodes(t *testing.T) {
	tor := MustNew(8, 8, 4)
	seen := make(map[NodeID]int)
	for g := 0; g < tor.NumGroups(); g++ {
		for _, id := range tor.GroupMembers(GroupID(g)) {
			seen[id]++
		}
	}
	if len(seen) != tor.Nodes() {
		t.Fatalf("groups cover %d nodes, want %d", len(seen), tor.Nodes())
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("node %d in %d groups", id, n)
		}
	}
}

func TestSubmeshDecomposition(t *testing.T) {
	tor := MustNew(12, 8)
	if n := tor.NumSubmeshes(); n != 6 {
		t.Fatalf("NumSubmeshes = %d, want 6", n)
	}
	counts := make(map[SubmeshID]int)
	tor.EachNode(func(id NodeID, c Coord) {
		counts[tor.Submesh(c)]++
	})
	if len(counts) != 6 {
		t.Fatalf("found %d submeshes, want 6", len(counts))
	}
	for s, n := range counts {
		if n != 16 {
			t.Fatalf("submesh %d has %d nodes, want 16", s, n)
		}
	}
}

func TestSubmeshBaseAndMembers(t *testing.T) {
	tor := MustNew(12, 8, 4)
	for s := 0; s < tor.NumSubmeshes(); s++ {
		base := tor.SubmeshBase(SubmeshID(s))
		if tor.Submesh(base) != SubmeshID(s) {
			t.Fatalf("SubmeshBase(%d) = %v not in submesh %d", s, base, s)
		}
		for i, v := range base {
			if v%4 != 0 {
				t.Fatalf("base %v dim %d not aligned", base, i)
			}
		}
		members := tor.SubmeshMembers(SubmeshID(s))
		if len(members) != 64 {
			t.Fatalf("submesh %d has %d members, want 64", s, len(members))
		}
		for _, id := range members {
			if tor.Submesh(tor.CoordOf(id)) != SubmeshID(s) {
				t.Fatalf("member %d not in submesh %d", id, s)
			}
		}
	}
}

func TestSubmeshMembersDistinctGroups(t *testing.T) {
	// Every node of a 4x4 submesh belongs to a distinct group
	// (paper, Section 3 introduction).
	tor := MustNew(12, 12)
	groups := make(map[GroupID]bool)
	for _, id := range tor.SubmeshMembers(0) {
		g := tor.Group(tor.CoordOf(id))
		if groups[g] {
			t.Fatalf("group %d repeated inside submesh", g)
		}
		groups[g] = true
	}
	if len(groups) != 16 {
		t.Fatalf("submesh covers %d groups, want 16", len(groups))
	}
}

func TestProxy(t *testing.T) {
	tor := MustNew(12, 12)
	self := Coord{1, 2}
	dest := Coord{9, 6}
	p := tor.Proxy(self, dest)
	// Proxy is in self's group...
	if tor.Group(p) != tor.Group(self) {
		t.Fatalf("proxy %v not in group of %v", p, self)
	}
	// ...and in dest's submesh.
	if tor.Submesh(p) != tor.Submesh(dest) {
		t.Fatalf("proxy %v not in submesh of %v", p, dest)
	}
	// Submesh base of dest is (8,4); self residues are (1,2).
	if !p.Equal(Coord{9, 6}) {
		t.Fatalf("proxy = %v, want (9,6)", p)
	}
}

func TestProxyProperty(t *testing.T) {
	tor := MustNew(12, 8, 4)
	f := func(si, di uint) bool {
		self := tor.CoordOf(NodeID(si % uint(tor.Nodes())))
		dest := tor.CoordOf(NodeID(di % uint(tor.Nodes())))
		p := tor.Proxy(self, dest)
		return tor.Group(p) == tor.Group(self) && tor.Submesh(p) == tor.Submesh(dest)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestProxyIdentityWithinOwnSubmesh(t *testing.T) {
	tor := MustNew(8, 8)
	self := Coord{5, 6}
	// Destination in self's own submesh: proxy is self.
	if p := tor.Proxy(self, Coord{4, 7}); !p.Equal(self) {
		t.Fatalf("proxy = %v, want %v", p, self)
	}
}

func TestQuadAndBitCoord(t *testing.T) {
	c := Coord{5, 6, 11}
	q := QuadCoord(c)
	if !q.Equal(Coord{0, 1, 1}) {
		t.Fatalf("QuadCoord = %v, want (0,1,1)", q)
	}
	b := BitCoord(c)
	if !b.Equal(Coord{1, 0, 1}) {
		t.Fatalf("BitCoord = %v, want (1,0,1)", b)
	}
}

func TestValidateForExchange(t *testing.T) {
	if err := MustNew(12, 8).ValidateForExchange(); err != nil {
		t.Fatalf("12x8 should validate: %v", err)
	}
	if err := MustNew(12, 10).ValidateForExchange(); err == nil {
		t.Fatal("12x10 should fail (10 not multiple of 4)")
	}
	if err := MustNew(8, 12).ValidateForExchange(); err == nil {
		t.Fatal("8x12 should fail (increasing sizes)")
	}
	if err := MustNew(12, 12, 8, 4).ValidateForExchange(); err != nil {
		t.Fatalf("12x12x8x4 should validate: %v", err)
	}
}

func TestValidateForExchangeRejects1D(t *testing.T) {
	// A ring passes the multiple-of-four and ordering checks; the
	// dimension count alone must reject it.
	if err := MustNew(8).ValidateForExchange(); err == nil {
		t.Fatal("1-D torus should fail")
	}
}

func TestMultipleOfFourAndSorted(t *testing.T) {
	if !MustNew(4, 4).MultipleOfFour() {
		t.Fatal("4x4 is a multiple of four")
	}
	if MustNew(6, 4).MultipleOfFour() {
		t.Fatal("6x4 is not a multiple of four")
	}
	if !MustNew(12, 12, 4).SortedNonIncreasing() {
		t.Fatal("12x12x4 is sorted")
	}
	if MustNew(4, 8).SortedNonIncreasing() {
		t.Fatal("4x8 is not sorted")
	}
}

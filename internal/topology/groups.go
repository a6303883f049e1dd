package topology

import "fmt"

// GroupStride is the group modulus of the Suh–Shin algorithms: nodes
// are partitioned by their coordinates mod 4, yielding 4^n groups, and
// the network decomposes into contiguous 4×…×4 submeshes.
const GroupStride = 4

// GroupID identifies one of the 4^n node groups. Its digits base 4 are
// the per-dimension residues, most significant digit = dimension 0, so
// the paper's "group ij" for a 2D torus is GroupID 4*i + j.
type GroupID int

// Group returns the group of coordinate c: digits (c[i] mod 4) packed
// base 4.
func (t *Torus) Group(c Coord) GroupID {
	g := 0
	for _, v := range c {
		g = g*GroupStride + v%GroupStride
	}
	return GroupID(g)
}

// GroupResidues unpacks a GroupID into per-dimension residues.
func (t *Torus) GroupResidues(g GroupID) []int {
	res := make([]int, len(t.dims))
	x := int(g)
	for i := len(t.dims) - 1; i >= 0; i-- {
		res[i] = x % GroupStride
		x /= GroupStride
	}
	return res
}

// NumGroups returns 4^n.
func (t *Torus) NumGroups() int {
	n := 1
	for range t.dims {
		n *= GroupStride
	}
	return n
}

// GroupMembers lists the nodes of group g in id order. For a torus
// whose sizes are multiples of 4, each group forms an
// (a1/4)×…×(an/4) subtorus with stride 4 in every dimension.
func (t *Torus) GroupMembers(g GroupID) []NodeID {
	res := t.GroupResidues(g)
	var out []NodeID
	t.EachNode(func(id NodeID, c Coord) {
		for i, v := range c {
			if v%GroupStride != res[i] {
				return
			}
		}
		out = append(out, id)
	})
	return out
}

// MultipleOfFour reports whether every dimension size is a multiple of
// GroupStride, the precondition of the paper's algorithms (Section 3).
func (t *Torus) MultipleOfFour() bool {
	for _, d := range t.dims {
		if d%GroupStride != 0 {
			return false
		}
	}
	return true
}

// SortedNonIncreasing reports whether Dims[0] >= Dims[1] >= … >= Dims[n-1],
// the paper's a1 >= a2 >= … >= an convention.
func (t *Torus) SortedNonIncreasing() bool {
	for i := 1; i < len(t.dims); i++ {
		if t.dims[i] > t.dims[i-1] {
			return false
		}
	}
	return true
}

// SubmeshID identifies a contiguous 4×…×4 submesh (SM). Packed from
// per-dimension indices c[i]/4 in row-major order.
type SubmeshID int

// Submesh returns the 4×…×4 submesh containing c.
func (t *Torus) Submesh(c Coord) SubmeshID {
	s := 0
	for i, v := range c {
		s = s*(t.dims[i]/GroupStride) + v/GroupStride
	}
	return SubmeshID(s)
}

// NumSubmeshes returns the number of 4×…×4 submeshes,
// (a1/4)·…·(an/4). Valid only when MultipleOfFour holds.
func (t *Torus) NumSubmeshes() int {
	n := 1
	for _, d := range t.dims {
		n *= d / GroupStride
	}
	return n
}

// SubmeshBase returns the lowest coordinate of submesh s.
func (t *Torus) SubmeshBase(s SubmeshID) Coord {
	c := make(Coord, len(t.dims))
	x := int(s)
	for i := len(t.dims) - 1; i >= 0; i-- {
		w := t.dims[i] / GroupStride
		c[i] = (x % w) * GroupStride
		x /= w
	}
	return c
}

// SubmeshMembers lists the 4^n nodes of submesh s in id order.
func (t *Torus) SubmeshMembers(s SubmeshID) []NodeID {
	base := t.SubmeshBase(s)
	out := make([]NodeID, 0, t.NumGroups())
	var walk func(dim int, c Coord)
	walk = func(dim int, c Coord) {
		if dim == len(t.dims) {
			out = append(out, t.ID(c))
			return
		}
		for o := 0; o < GroupStride; o++ {
			c[dim] = base[dim] + o
			walk(dim+1, c)
		}
	}
	walk(0, make(Coord, len(t.dims)))
	return out
}

// Proxy returns, for an exchanging node self and a final destination
// dest, the node of self's group that lies in dest's 4×…×4 submesh:
// the node the group phases (phases 1..n) must deliver the block to,
// before phases n+1 and n+2 move it to dest within the submesh.
func (t *Torus) Proxy(self, dest Coord) Coord {
	p := make(Coord, len(t.dims))
	for i := range p {
		p[i] = (dest[i]/GroupStride)*GroupStride + self[i]%GroupStride
	}
	return p
}

// QuadCoord returns the 2×…×2 sub-submesh index of c within its 4×…×4
// submesh: per-dimension bits (c[i] mod 4) / 2. Used by phase n+1.
func QuadCoord(c Coord) Coord {
	q := make(Coord, len(c))
	for i, v := range c {
		q[i] = (v % GroupStride) / 2
	}
	return q
}

// BitCoord returns the node index of c within its 2×…×2 submesh:
// per-dimension bits c[i] mod 2. Used by phase n+2.
func BitCoord(c Coord) Coord {
	b := make(Coord, len(c))
	for i, v := range c {
		b[i] = v % 2
	}
	return b
}

// ValidateForExchange checks the preconditions of the Suh–Shin
// algorithms: at least two dimensions, every dimension a multiple of
// four and sizes non-increasing. It returns a descriptive error
// otherwise. Every builder and simulator of the exchange calls it
// first, so plan.GroupPhases and plan.QuadOrder never see a
// one-dimensional shape.
func (t *Torus) ValidateForExchange() error {
	if t.NDims() < 2 {
		return fmt.Errorf("topology: torus %s has %d dimension(s); the exchange needs at least 2", t, t.NDims())
	}
	if !t.MultipleOfFour() {
		return fmt.Errorf("topology: torus %s has a dimension that is not a multiple of %d; use the virtual-node extension", t, GroupStride)
	}
	if !t.SortedNonIncreasing() {
		return fmt.Errorf("topology: torus %s must have non-increasing dimension sizes (a1 >= a2 >= ...)", t)
	}
	return nil
}

// Package topology models n-dimensional torus networks: node labeling,
// coordinate arithmetic, wrap-around (ring) distances, the mod-4 node
// groups of Suh & Shin (ICPP'98), and the 4^n / 2^n submesh
// decompositions their exchange algorithms operate on.
//
// Conventions used throughout the repository:
//
//   - A torus is described by its per-dimension sizes Dims[0..n-1].
//     Following the paper, Dims[0] is the largest dimension (a1) and
//     sizes are non-increasing, although Torus itself accepts any sizes.
//   - A node is identified either by its coordinate vector Coord or by
//     a dense NodeID in row-major order (Coord[0] varies slowest).
//   - A unidirectional physical link is identified by (from, dim, dir)
//     where dir is +1 or -1; the full-duplex channel of the paper is a
//     pair of such links.
package topology

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// NodeID is a dense node index in [0, N). It is 32-bit, which caps N
// at MaxNodes and makes a block.Block two 4-byte ids.
type NodeID int32

// Coord is a coordinate vector with one entry per dimension.
type Coord []int

// Clone returns an independent copy of c.
func (c Coord) Clone() Coord {
	out := make(Coord, len(c))
	copy(out, c)
	return out
}

// Equal reports whether c and d are the same point.
func (c Coord) Equal(d Coord) bool {
	if len(c) != len(d) {
		return false
	}
	for i := range c {
		if c[i] != d[i] {
			return false
		}
	}
	return true
}

// String renders the coordinate as "(x,y,z)".
func (c Coord) String() string {
	parts := make([]string, len(c))
	for i, v := range c {
		parts[i] = strconv.Itoa(v)
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// Direction is a signed unit step along one dimension.
type Direction int

const (
	// Pos is the positive (increasing-coordinate, wrap-around) direction.
	Pos Direction = +1
	// Neg is the negative direction.
	Neg Direction = -1
)

func (d Direction) String() string {
	if d == Pos {
		return "+"
	}
	return "-"
}

// Link identifies one unidirectional physical channel: the channel
// leaving node From along dimension Dim in direction Dir.
type Link struct {
	From NodeID
	Dim  int
	Dir  Direction
}

func (l Link) String() string {
	return fmt.Sprintf("L(%d,%d,%s)", l.From, l.Dim, l.Dir)
}

// Torus is an n-dimensional wrap-around network.
type Torus struct {
	dims    []int
	strides []int // row-major strides; strides[last] == 1
	n       int   // total node count
	fp      string
}

// New constructs a torus with the given per-dimension sizes.
// Every size must be at least 1; at least one dimension is required.
func New(dims ...int) (*Torus, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("topology: torus needs at least one dimension")
	}
	t := &Torus{
		dims:    append([]int(nil), dims...),
		strides: make([]int, len(dims)),
	}
	n := 1
	for i := len(dims) - 1; i >= 0; i-- {
		if dims[i] < 1 {
			return nil, fmt.Errorf("topology: dimension %d has invalid size %d", i, dims[i])
		}
		if dims[i] > MaxNodes/n {
			return nil, fmt.Errorf("topology: torus %v has more than %d nodes", dims, MaxNodes)
		}
		t.strides[i] = n
		n *= dims[i]
	}
	t.n = n
	t.fp = "torus:" + t.String()
	return t, nil
}

// MaxNodes is the largest node count a fabric may have: NodeID is an
// int32, so every id in [0, MaxNodes) fits one, and link ids and a
// compiled program's tables are 32-bit too. A caller's int node number
// is range-checked before it becomes a NodeID, never after.
const MaxNodes = math.MaxInt32

// MustNew is New, panicking on error. Intended for tests and examples
// with constant shapes.
func MustNew(dims ...int) *Torus {
	t, err := New(dims...)
	if err != nil {
		panic(err)
	}
	return t
}

// NDims returns the number of dimensions.
func (t *Torus) NDims() int { return len(t.dims) }

// Dim returns the size of dimension i.
func (t *Torus) Dim(i int) int { return t.dims[i] }

// Dims returns a copy of the per-dimension sizes.
func (t *Torus) Dims() []int { return append([]int(nil), t.dims...) }

// Nodes returns the total node count.
func (t *Torus) Nodes() int { return t.n }

// String renders the shape as "12x12x12".
func (t *Torus) String() string {
	parts := make([]string, len(t.dims))
	for i, d := range t.dims {
		parts[i] = strconv.Itoa(d)
	}
	return strings.Join(parts, "x")
}

// ID converts a coordinate to its dense node id.
func (t *Torus) ID(c Coord) NodeID {
	id := 0
	for i, v := range c {
		id += v * t.strides[i]
	}
	return NodeID(id)
}

// CoordOf converts a dense node id to its coordinate vector.
func (t *Torus) CoordOf(id NodeID) Coord {
	c := make(Coord, len(t.dims))
	rest := int(id)
	for i := range t.dims {
		c[i] = rest / t.strides[i]
		rest %= t.strides[i]
	}
	return c
}

// InBounds reports whether c is a valid coordinate of t.
func (t *Torus) InBounds(c Coord) bool {
	if len(c) != len(t.dims) {
		return false
	}
	for i, v := range c {
		if v < 0 || v >= t.dims[i] {
			return false
		}
	}
	return true
}

// Wrap returns x mod the size of dimension dim, mapped into [0, size).
func (t *Torus) Wrap(dim, x int) int {
	s := t.dims[dim]
	x %= s
	if x < 0 {
		x += s
	}
	return x
}

// Move returns the coordinate reached from c by moving delta positions
// along dimension dim with wrap-around.
func (t *Torus) Move(c Coord, dim, delta int) Coord {
	out := c.Clone()
	out[dim] = t.Wrap(dim, c[dim]+delta)
	return out
}

// MoveID is Move over dense node ids.
func (t *Torus) MoveID(id NodeID, dim, delta int) NodeID {
	return t.ID(t.Move(t.CoordOf(id), dim, delta))
}

// RingDist returns the number of hops from a to b along dimension dim
// travelling only in direction dir (wrap-around). The result is in
// [0, Dim(dim)).
func (t *Torus) RingDist(a, b Coord, dim int, dir Direction) int {
	d := b[dim] - a[dim]
	if dir == Neg {
		d = -d
	}
	return t.Wrap(dim, d)
}

// MinHops returns the minimal torus hop distance between a and b
// (sum over dimensions of min(forward, backward) ring distance).
func (t *Torus) MinHops(a, b Coord) int {
	total := 0
	for i := range t.dims {
		f := t.Wrap(i, b[i]-a[i])
		r := t.dims[i] - f
		if r < f {
			f = r
		}
		total += f
	}
	return total
}

// PathLinks expands a single-dimension move of hops steps from src in
// direction dir along dim into the ordered list of unidirectional
// physical links it occupies. A wormhole-switched message holds all of
// them simultaneously, so a step is contention-free only if no two
// messages share any link.
func (t *Torus) PathLinks(src Coord, dim int, dir Direction, hops int) []Link {
	links := make([]Link, 0, hops)
	cur := src.Clone()
	for i := 0; i < hops; i++ {
		links = append(links, Link{From: t.ID(cur), Dim: dim, Dir: dir})
		cur = t.Move(cur, dim, int(dir))
	}
	return links
}

// AllLinks enumerates every unidirectional physical link in the torus.
// Dimensions of size 1 have no links; dimensions of size 2 have a
// single physical channel per direction pair (the wrap link coincides
// with the direct link), which this enumeration reflects by emitting
// one link per (node, dim, dir).
func (t *Torus) AllLinks() []Link {
	var links []Link
	for id := 0; id < t.n; id++ {
		for dim := 0; dim < len(t.dims); dim++ {
			if t.dims[dim] < 2 {
				continue
			}
			links = append(links, Link{From: NodeID(id), Dim: dim, Dir: Pos})
			links = append(links, Link{From: NodeID(id), Dim: dim, Dir: Neg})
		}
	}
	return links
}

// EachNode calls fn for every node in id order.
func (t *Torus) EachNode(fn func(id NodeID, c Coord)) {
	for id := 0; id < t.n; id++ {
		fn(NodeID(id), t.CoordOf(NodeID(id)))
	}
}

package topology

import "fmt"

// Dragonfly is the swapped dragonfly D3(K,M) in the style of Draper
// ("Four Algorithms on the Swapped Dragonfly", 2022): K·M groups of M
// routers each (N = K·M² nodes, one node per router), every group a
// complete graph on its M routers, and K global ports per router wired
// by the swapped (OTIS) rule
//
//	⟨g, r⟩ —port k→ ⟨kM + r, g mod M⟩
//
// which is an involution: the landing router's port ⌊g/M⌋ leads
// straight back. K = 1 degenerates to the classic swapped network
// ⟨g, r⟩ ↔ ⟨r, g⟩. Minimal routing is local–global–local: at most one
// hop to the entry router dg mod M, one global hop on port ⌊dg/M⌋, and
// one hop from the landing router sg mod M to the destination.
//
// The fabric reuses the torus's (node, dim, dir) link vocabulary by
// treating router port classes as dimensions:
//
//   - dims 0..⌊M/2⌋-1 are local offset pairs: class c connects router r
//     to r+(c+1) mod M (Pos) and r-(c+1) mod M (Neg). When M is even
//     the diameter chord 2(c+1) = M coincides with its own reverse, so
//     its Neg slot is unwired and both directions of the physical
//     channel appear as some router's Pos link.
//   - dims ⌊M/2⌋..⌊M/2⌋+K-1 are global ports, Pos only; the slot is
//     unwired when the swapped rule maps the router to its own group
//     (kM + r = g, i.e. r = g mod M at port k = ⌊g/M⌋).
//
// Every leg of a dragonfly route is Hops = 1, so schedule.Seg chains
// express local–global–local routes unchanged and the dense link-id
// formula (node·NDims + dim)·2 + dir is shared with the torus.
type Dragonfly struct {
	k          int // global ports per router
	m          int // routers per group
	groups     int // K·M
	n          int // K·M²
	localPairs int // ⌊M/2⌋ local offset classes
	fp         string
}

var _ Fabric = (*Dragonfly)(nil)

// NewDragonfly constructs a D3(K, M) swapped dragonfly.
func NewDragonfly(k, m int) (*Dragonfly, error) {
	if k < 1 || m < 1 {
		return nil, fmt.Errorf("topology: dragonfly needs K >= 1 and M >= 1, got K=%d M=%d", k, m)
	}
	if m > MaxNodes/m || k > MaxNodes/(m*m) {
		return nil, fmt.Errorf("topology: dragonfly D3(%d,%d) has more than %d nodes", k, m, MaxNodes)
	}
	return &Dragonfly{
		k: k, m: m, groups: k * m, n: k * m * m, localPairs: m / 2,
		fp: fmt.Sprintf("d3:%dx%d", k, m),
	}, nil
}

// MustNewDragonfly is NewDragonfly, panicking on error.
func MustNewDragonfly(k, m int) *Dragonfly {
	d, err := NewDragonfly(k, m)
	if err != nil {
		panic(err)
	}
	return d
}

// K returns the number of global ports per router.
func (d *Dragonfly) K() int { return d.k }

// M returns the number of routers per group.
func (d *Dragonfly) M() int { return d.m }

// Groups returns the group count K·M.
func (d *Dragonfly) Groups() int { return d.groups }

// Nodes returns the node count K·M².
func (d *Dragonfly) Nodes() int { return d.n }

// NDims returns the port-class count ⌊M/2⌋ + K.
func (d *Dragonfly) NDims() int { return d.localPairs + d.k }

// LocalDims returns the number of local offset classes ⌊M/2⌋; global
// port k is dimension LocalDims() + k.
func (d *Dragonfly) LocalDims() int { return d.localPairs }

// Group returns the group index of id.
func (d *Dragonfly) Group(id NodeID) int { return int(id) / d.m }

// Router returns the in-group router index of id.
func (d *Dragonfly) Router(id NodeID) int { return int(id) % d.m }

// ID returns the node at (group, router).
func (d *Dragonfly) ID(group, router int) NodeID { return NodeID(group*d.m + router) }

// CoordOf renders id as its (group, router) pair.
func (d *Dragonfly) CoordOf(id NodeID) Coord { return Coord{d.Group(id), d.Router(id)} }

// String renders the shape as "D3(K,M)".
func (d *Dragonfly) String() string { return fmt.Sprintf("D3(%d,%d)", d.k, d.m) }

// Fingerprint returns "d3:KxM", precomputed at construction — the
// serving layer's warm path calls it per lookup.
func (d *Dragonfly) Fingerprint() string { return d.fp }

// neighbor returns the node reached from id along one wired (dim, dir)
// port, or ok=false when the slot is unwired.
func (d *Dragonfly) neighbor(id NodeID, dim int, dir Direction) (NodeID, bool) {
	g, r := int(id)/d.m, int(id)%d.m
	if dim < d.localPairs {
		o := dim + 1
		if dir == Pos {
			return NodeID(g*d.m + (r+o)%d.m), true
		}
		if 2*o == d.m {
			return 0, false // diameter chord: only the Pos slot is wired
		}
		return NodeID(g*d.m + (r-o+d.m)%d.m), true
	}
	if dir == Neg {
		return 0, false // global ports are Pos-only
	}
	tg := (dim-d.localPairs)*d.m + r
	if tg == g {
		return 0, false // swapped rule maps the router to its own group
	}
	return NodeID(tg*d.m + g%d.m), true
}

// Wired reports whether the (node, dim, dir) slot carries a link.
func (d *Dragonfly) Wired(id NodeID, dim int, dir Direction) bool {
	_, ok := d.neighbor(id, dim, dir)
	return ok
}

// Advance returns the node reached from `from` by hops single-port
// legs along dim in direction dir, panicking on unwired ports.
func (d *Dragonfly) Advance(from NodeID, dim int, dir Direction, hops int) NodeID {
	cur := from
	for i := 0; i < hops; i++ {
		nxt, ok := d.neighbor(cur, dim, dir)
		if !ok {
			panic(fmt.Sprintf("topology: %s route traverses unwired port (node %d, dim %d, dir %s)",
				d, cur, dim, dir))
		}
		cur = nxt
	}
	return cur
}

// NumLinkIDs sizes the dense link-id space Nodes()·NDims()·2; unwired
// slots (global Neg ports, diameter-chord Neg, self-group global
// ports) occupy ids that Links never emits, exactly like size-1 torus
// dimensions.
func (d *Dragonfly) NumLinkIDs() int { return d.n * d.NDims() * 2 }

// LinkID maps l to its dense id, sharing the torus formula.
func (d *Dragonfly) LinkID(l Link) int {
	s := 0
	if l.Dir == Neg {
		s = 1
	}
	return (int(l.From)*d.NDims()+l.Dim)*2 + s
}

// LinkAt inverts LinkID.
func (d *Dragonfly) LinkAt(id int) Link {
	dir := Pos
	if id&1 == 1 {
		dir = Neg
	}
	id >>= 1
	nd := d.NDims()
	return Link{From: NodeID(id / nd), Dim: id % nd, Dir: dir}
}

// Links enumerates every wired unidirectional link in ascending
// dense-id order: N·(M-1) local links plus N·K - K·M global links
// (each router owns M-1 local out-channels and K global ports, one of
// which is a self-loop on the M routers with r = g mod M).
func (d *Dragonfly) Links() []Link {
	links := make([]Link, 0, d.n*(d.m-1)+d.n*d.k-d.groups)
	nd := d.NDims()
	for id := 0; id < d.n; id++ {
		for dim := 0; dim < nd; dim++ {
			for _, dir := range []Direction{Pos, Neg} {
				if d.Wired(NodeID(id), dim, dir) {
					links = append(links, Link{From: NodeID(id), Dim: dim, Dir: dir})
				}
			}
		}
	}
	return links
}

// AppendPathLinkIDs appends the dense ids of the links occupied by a
// hops-long leg from src along dim in direction dir, in path order,
// panicking on unwired ports.
func (d *Dragonfly) AppendPathLinkIDs(ids []int32, src NodeID, dim int, dir Direction, hops int) []int32 {
	cur := src
	for i := 0; i < hops; i++ {
		ids = append(ids, int32(d.LinkID(Link{From: cur, Dim: dim, Dir: dir})))
		cur = d.Advance(cur, dim, dir, 1)
	}
	return ids
}

// NumContentionDomains returns NumLinkIDs: every dragonfly channel is
// its own wormhole contention domain.
func (d *Dragonfly) NumContentionDomains() int { return d.NumLinkIDs() }

// ContentionDomain is the identity on the dragonfly.
func (d *Dragonfly) ContentionDomain(linkID int) int { return linkID }

// Hop is one port traversal of a dragonfly route.
type Hop struct {
	Dim int
	Dir Direction
}

// localHop returns the port class and direction connecting router
// `from` to router `to` within one group, and ok=false when from == to.
func (d *Dragonfly) localHop(from, to int) (Hop, bool) {
	o := (to - from + d.m) % d.m
	if o == 0 {
		return Hop{}, false
	}
	if 2*o <= d.m {
		return Hop{Dim: o - 1, Dir: Pos}, true
	}
	return Hop{Dim: (d.m - o) - 1, Dir: Neg}, true
}

// Route returns the minimal local–global–local route from src to dst:
// nil for src == dst, one local hop within a group, and at most
// local + global + local across groups. Every hop is a single port
// traversal (Hops = 1 in schedule.Seg terms).
func (d *Dragonfly) Route(src, dst NodeID) []Hop {
	if src == dst {
		return nil
	}
	sg, sr := d.Group(src), d.Router(src)
	dg, dr := d.Group(dst), d.Router(dst)
	if sg == dg {
		h, _ := d.localHop(sr, dr)
		return []Hop{h}
	}
	route := make([]Hop, 0, 3)
	entry := dg % d.m // the one router in sg wired to dg
	if sr != entry {
		h, _ := d.localHop(sr, entry)
		route = append(route, h)
	}
	route = append(route, Hop{Dim: d.localPairs + dg/d.m, Dir: Pos})
	if landing := sg % d.m; landing != dr {
		h, _ := d.localHop(landing, dr)
		route = append(route, h)
	}
	return route
}

// MinHops returns the minimal route length between a and b.
func (d *Dragonfly) MinHops(a, b NodeID) int { return len(d.Route(a, b)) }

// EachNode calls fn for every node in id order.
func (d *Dragonfly) EachNode(fn func(id NodeID, c Coord)) {
	for id := 0; id < d.n; id++ {
		fn(NodeID(id), d.CoordOf(NodeID(id)))
	}
}

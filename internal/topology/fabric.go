package topology

// Fabric is the topology seam of the repository: the capability set the
// schedule IR, the executor, the program cache, the telemetry post-pass
// and the simulators need from a network, with no torus-specific
// vocabulary. A fabric names its nodes
// densely, enumerates its unidirectional links with a dense id space,
// expands single-"dimension" route legs into link-id paths, and maps
// links to contention domains.
//
// The (Dim, Dir, Hops) vocabulary of schedule.Seg is reinterpreted per
// fabric: on a torus a dimension is a ring axis and Hops counts wrap
// steps; on the swapped dragonfly a dimension is a router port class
// (local offset pairs, then global ports) and routes are chains of
// Hops=1 legs. Either way a leg is a deterministic walk, so the IR,
// the checks and the replay never branch on the concrete type.
type Fabric interface {
	// Nodes returns the node count; node ids are dense in [0, Nodes()).
	Nodes() int
	// NDims returns the number of route dimensions (torus axes, or
	// dragonfly port classes) a Seg may name.
	NDims() int
	// CoordOf renders a node id as a coordinate vector for labels and
	// diagnostics; len == NDims() is not required (the dragonfly
	// reports (group, router) pairs).
	CoordOf(id NodeID) Coord
	// String renders the shape for humans ("8x8", "D3(2,4)").
	String() string
	// Fingerprint returns a stable, collision-free identity for cache
	// keys and serialized descriptors ("torus:8x8", "d3:2x4"). Two
	// fabrics with equal fingerprints must be interchangeable.
	Fingerprint() string

	// NumLinkIDs sizes the dense link-id space. The space may cover
	// unwired (node, dim, dir) slots; Links enumerates only real links,
	// in ascending dense-id order.
	NumLinkIDs() int
	// LinkID maps a link to its dense id in [0, NumLinkIDs()).
	LinkID(l Link) int
	// LinkAt inverts LinkID.
	LinkAt(id int) Link
	// Links enumerates every wired unidirectional link in ascending
	// dense-id order.
	Links() []Link

	// Advance returns the node reached from `from` by a hops-long leg
	// along dim in direction dir. It panics if the leg traverses an
	// unwired port — schedules that do so are builder bugs.
	Advance(from NodeID, dim int, dir Direction, hops int) NodeID
	// AppendPathLinkIDs appends the dense ids of the links occupied by
	// a hops-long leg from src along dim in direction dir, in path
	// order. Same unwired-port panic as Advance.
	AppendPathLinkIDs(ids []int32, src NodeID, dim int, dir Direction, hops int) []int32

	// NumContentionDomains returns the size of the contention-domain
	// space. When it equals NumLinkIDs the mapping is the identity and
	// consumers may index claim tables by link id directly — both the
	// torus and the dragonfly satisfy this; a fabric with grouped
	// domains (e.g. a shared optical bus) returns fewer.
	NumContentionDomains() int
	// ContentionDomain maps a dense link id to its domain in
	// [0, NumContentionDomains()). Two links in one domain cannot be
	// used by two messages in the same contention-free step.
	ContentionDomain(linkID int) int
}

// Torus conformance. The torus's dense link-id space and canonical
// AllLinks order predate the interface; the methods below only adapt
// vocabulary (NodeID-based route walking, identity contention domains).
var _ Fabric = (*Torus)(nil)

// Fingerprint returns "torus:" + the shape string. Precomputed at
// construction: the serving layer's warm path calls it per lookup.
func (t *Torus) Fingerprint() string { return t.fp }

// Links enumerates every wired unidirectional link in ascending
// dense-id order (AllLinks' canonical node-major, dim, +/- order).
func (t *Torus) Links() []Link { return t.AllLinks() }

// Advance returns the node reached from `from` by hops wrap steps
// along dim in direction dir.
func (t *Torus) Advance(from NodeID, dim int, dir Direction, hops int) NodeID {
	stride := t.strides[dim]
	size := t.dims[dim]
	x := (int(from) / stride) % size
	nx := (x + int(dir)*hops) % size
	if nx < 0 {
		nx += size
	}
	return from + NodeID((nx-x)*stride)
}

// NumContentionDomains returns NumLinkIDs: every torus link is its own
// wormhole contention domain.
func (t *Torus) NumContentionDomains() int { return t.NumLinkIDs() }

// ContentionDomain is the identity on the torus.
func (t *Torus) ContentionDomain(linkID int) int { return linkID }

package oracle

import (
	"fmt"

	"torusx/internal/block"
	"torusx/internal/topology"
)

// The checks below are the correctness invariants of an all-to-all
// personalized exchange: global block conservation, final delivery,
// payload integrity, and the intermediate proxy-placement property of
// the Suh–Shin group phases. They read the simulators' buffers and a
// replay's delivered block.Buffers alike.

// Holder is a node's array of blocks as the checks read it.
type Holder interface{ View() []block.Block }

// Conservation checks that the buffers together hold exactly one block
// per (origin, dest) pair of the full N×N exchange.
func Conservation[B Holder](f topology.Fabric, bufs []B) error {
	n := f.Nodes()
	seen := make([]bool, n*n)
	total := 0
	for holder, buf := range bufs {
		for _, b := range buf.View() {
			if int(b.Origin) < 0 || int(b.Origin) >= n || int(b.Dest) < 0 || int(b.Dest) >= n {
				return fmt.Errorf("oracle: node %d holds out-of-range block %v", holder, b)
			}
			idx := int(b.Origin)*n + int(b.Dest)
			if seen[idx] {
				return fmt.Errorf("oracle: duplicate block %v (seen again at node %d)", b, holder)
			}
			seen[idx] = true
			total++
		}
	}
	if total != n*n {
		return fmt.Errorf("oracle: %d blocks present, want %d", total, n*n)
	}
	return nil
}

// Delivered checks the exchange post-condition: node i holds exactly
// the N blocks {B[j,i] : all j}, with intact payload checksums.
func Delivered[B Holder](f topology.Fabric, bufs []B) error {
	n := f.Nodes()
	if len(bufs) != n {
		return fmt.Errorf("oracle: %d buffers for %d nodes", len(bufs), n)
	}
	for i, buf := range bufs {
		if len(buf.View()) != n {
			return fmt.Errorf("oracle: node %d holds %d blocks, want %d", i, len(buf.View()), n)
		}
		fromOrigin := make([]bool, n)
		for _, b := range buf.View() {
			if b.Dest != topology.NodeID(i) {
				return fmt.Errorf("oracle: node %d holds misdelivered block %v", i, b)
			}
			if fromOrigin[b.Origin] {
				return fmt.Errorf("oracle: node %d holds two blocks from origin %d", i, b.Origin)
			}
			fromOrigin[b.Origin] = true
			want := block.Block{Origin: b.Origin, Dest: b.Dest}
			if b.Checksum() != want.Checksum() {
				return fmt.Errorf("oracle: node %d block %v checksum mismatch", i, b)
			}
		}
	}
	return nil
}

// DeliveredMatrix checks delivery of an arbitrary declared traffic
// matrix: node i must hold exactly the blocks of traffic whose Dest is
// i, no more and no fewer. Duplicate (origin, dest) pairs in traffic
// are rejected. This is the post-condition the shared executor
// enforces after replaying any payload-annotated schedule.
func DeliveredMatrix[B Holder](f topology.Fabric, bufs []B, traffic []block.Block) error {
	n := f.Nodes()
	if len(bufs) != n {
		return fmt.Errorf("oracle: %d buffers for %d nodes", len(bufs), n)
	}
	want := make(map[block.Block]bool, len(traffic))
	perDest := make([]int, n)
	for _, b := range traffic {
		if int(b.Origin) < 0 || int(b.Origin) >= n || int(b.Dest) < 0 || int(b.Dest) >= n {
			return fmt.Errorf("oracle: traffic block %v out of range for %d nodes", b, n)
		}
		if want[b] {
			return fmt.Errorf("oracle: duplicate traffic block %v", b)
		}
		want[b] = true
		perDest[b.Dest]++
	}
	for i, buf := range bufs {
		if len(buf.View()) != perDest[i] {
			return fmt.Errorf("oracle: node %d holds %d blocks, want %d", i, len(buf.View()), perDest[i])
		}
		for _, b := range buf.View() {
			if b.Dest != topology.NodeID(i) {
				return fmt.Errorf("oracle: node %d holds misdelivered block %v", i, b)
			}
			if !want[b] {
				return fmt.Errorf("oracle: node %d holds block %v outside the traffic matrix (or duplicated)", i, b)
			}
			delete(want, b)
		}
	}
	if len(want) != 0 {
		for b := range want {
			return fmt.Errorf("oracle: traffic block %v was never delivered", b)
		}
	}
	return nil
}

// ProxyPlacement checks the invariant that holds after the n group
// phases: every node q holds exactly the blocks originated in q's
// group whose destinations lie in q's 4×…×4 submesh.
func ProxyPlacement[B Holder](t *topology.Torus, bufs []B) error {
	for i, buf := range bufs {
		self := t.CoordOf(topology.NodeID(i))
		selfGroup := t.Group(self)
		selfSM := t.Submesh(self)
		want := t.Nodes() // every node still holds N blocks
		if len(buf.View()) != want {
			return fmt.Errorf("oracle: node %d holds %d blocks after group phases, want %d", i, len(buf.View()), want)
		}
		for _, b := range buf.View() {
			oc := t.CoordOf(b.Origin)
			dc := t.CoordOf(b.Dest)
			if t.Group(oc) != selfGroup {
				return fmt.Errorf("oracle: node %d holds block %v from foreign group", i, b)
			}
			if t.Submesh(dc) != selfSM {
				return fmt.Errorf("oracle: node %d holds block %v for foreign submesh", i, b)
			}
		}
	}
	return nil
}

package traffic

import (
	"fmt"
	"slices"

	"torusx/internal/schedule"
)

// Prune specializes a payload-annotated schedule to a sub-matrix of
// the traffic it carries: dead-transfer elimination over the schedule
// IR. Every transfer's payload is filtered to the blocks m contains;
// transfers left empty are dropped, steps left without transfers are
// dropped (each dropped step is one startup saved), and phases left
// without steps or charge vanish. Because a block's journey through a
// schedule is exactly the subsequence of transfers whose payload lists
// it, filtering by block identity preserves every kept block's full
// relay chain — the pruned schedule replays and delivery-verifies
// against m through the unmodified executor. Validity is monotone
// under pruning: a subset of a step's transfers cannot introduce a
// one-port or contention violation, and a Shared step's serialization
// factor can only shrink.
//
// Per-phase Rearrange annotations are charged to the busiest node:
// every node starts holding its row of m (self blocks included), the
// payloads the prune keeps move those counts, and a phase opening
// while the busiest node holds h blocks is charged
// ceil(Rearrange·h/N). On the proposed exchange, whose phases carry
// Rearrange = N, that is exactly h, the blocks the busiest node
// re-sorts at the boundary. A phase with a nonzero charge is kept even
// when pruning left it no steps; empty steps are dropped all the same
// (see schedule.Phase.Rearrange).
//
// The source schedule must carry complete payload annotations
// (sc.HasPayload) and cover every block of m — pruning an all-to-all
// schedule to any sub-matrix satisfies this by construction. The
// source schedule is not modified; the result shares its Fabric and
// (for untouched transfers) payload slices.
func Prune(sc *schedule.Schedule, m Matrix) (*schedule.Schedule, error) {
	if sc == nil || sc.Fabric == nil {
		return nil, fmt.Errorf("traffic: prune of nil schedule")
	}
	n := sc.Fabric.Nodes()
	if n != m.Nodes() {
		return nil, fmt.Errorf("traffic: matrix over %d nodes pruning a %d-node schedule", m.Nodes(), n)
	}

	// Dense membership of the kept blocks, and a carried-blocks check:
	// every non-self block of m must appear in some transfer payload,
	// or the pruned schedule could not possibly deliver it and the
	// error should name the block now rather than fail delivery later.
	keep := make([]bool, n*n)
	for _, b := range m.Blocks() {
		keep[b.ID(n)] = true
	}
	carried := make([]bool, n*n)
	// held[v] is the blocks node v holds between the kept steps.
	held := make([]int, n)
	for _, b := range m.Blocks() {
		held[b.Origin]++
	}

	out := &schedule.Schedule{Fabric: sc.Fabric}
	for pi := range sc.Phases {
		ph := &sc.Phases[pi]
		np := schedule.Phase{Name: ph.Name}
		if ph.Rearrange > 0 {
			np.Rearrange = (ph.Rearrange*slices.Max(held) + n - 1) / n
		}
		for si := range ph.Steps {
			s := &ph.Steps[si]
			var ns schedule.Step
			for i := range s.Transfers {
				tr := &s.Transfers[i]
				if len(tr.Payload) != tr.Blocks {
					return nil, fmt.Errorf("traffic: prune needs full payload annotations; phase %q step %d transfer %v carries %d of %d",
						ph.Name, si, tr, len(tr.Payload), tr.Blocks)
				}
				kept := filterPayload(tr.Payload, keep, carried)
				if len(kept) == 0 {
					continue
				}
				if uint(tr.Src) >= uint(n) || uint(tr.Dst) >= uint(n) {
					return nil, fmt.Errorf("traffic: phase %q step %d transfer %v has an endpoint outside %d nodes", ph.Name, si, tr, n)
				}
				held[tr.Src] -= len(kept)
				held[tr.Dst] += len(kept)
				ntr := *tr
				ntr.Payload = kept
				ntr.Blocks = len(kept)
				ns.Transfers = append(ns.Transfers, ntr)
			}
			if len(ns.Transfers) == 0 {
				continue
			}
			ns.Shared = s.Shared
			np.Steps = append(np.Steps, ns)
		}
		if len(np.Steps) > 0 || np.Rearrange > 0 {
			out.Phases = append(out.Phases, np)
		}
	}

	for _, b := range m.Blocks() {
		if b.Origin == b.Dest {
			continue // self blocks are born delivered and never travel
		}
		if !carried[b.ID(n)] {
			return nil, fmt.Errorf("traffic: schedule never carries block %v of the matrix", b)
		}
	}
	return out, nil
}

// filterPayload returns the sub-slice of payload the keep set retains,
// recording each kept id in carried. When every id survives the
// original slice is returned unchanged (no copy — the common case for
// dense-ish matrices); out-of-range ids are left for the executor's
// compile-time validation to report.
func filterPayload(payload []int32, keep, carried []bool) []int32 {
	cnt := 0
	for _, id := range payload {
		if uint32(id) < uint32(len(keep)) && keep[id] {
			cnt++
		}
	}
	if cnt == 0 {
		return nil
	}
	if cnt == len(payload) {
		for _, id := range payload {
			carried[id] = true
		}
		return payload
	}
	kept := make([]int32, 0, cnt)
	for _, id := range payload {
		if uint32(id) < uint32(len(keep)) && keep[id] {
			carried[id] = true
			kept = append(kept, id)
		}
	}
	return kept
}

// Package schedule defines the structural representation of a
// collective-communication schedule — phases, steps and per-step
// transfers — the universal intermediate representation every
// algorithm in this repository (the proposed Suh–Shin exchange, the
// Direct/Ring/Factored/LogTime baselines and the collectives) lowers
// to, and the one representation the shared executor in internal/exec
// replays, verifies and measures.
//
// Payloads name blocks by dense id: block B[o,d] of an n-node exchange
// (n = Fabric.Nodes()) is the int32 o*n + d, the name every builder
// already tracks and the one the executor replays. block.Block.ID and
// block.FromID convert between the two.
//
// Validity on a wormhole-switched torus means:
//
//   - contention-freedom: within one step, no unidirectional physical
//     link is used by more than one message (a wormhole message holds
//     every link on its path for the duration of the step). Steps that
//     deliberately time-share links — e.g. the distance-2^r rounds of
//     the minimum-startup baselines — declare Shared and are charged
//     the link-sharing serialization factor instead of being rejected;
//   - the one-port model: within one step, every node injects at most
//     one message and consumes at most one message. This holds for
//     every step of every schedule, Shared or not.
package schedule

import (
	"fmt"

	"torusx/internal/topology"
)

// Seg is one single-dimension leg of a transfer's route.
type Seg struct {
	Dim  int
	Dir  topology.Direction
	Hops int
}

// Transfer is one combined message within a step: Blocks message
// blocks sent from Src to Dst, travelling Hops hops along dimension
// Dim in direction Dir. Transfers whose route spans several dimensions
// (dimension-ordered routing, e.g. the Direct baseline's id-shift
// sends) carry the full route in Segs; Dim/Dir/Hops then describe the
// first leg and TotalHops/PathLinks cover the whole route.
type Transfer struct {
	Src, Dst topology.NodeID
	Dim      int
	Dir      topology.Direction
	Hops     int
	Blocks   int

	// Segs is the dimension-ordered multi-leg route; nil means the
	// route is the single leg (Dim, Dir, Hops).
	Segs []Seg

	// Payload lists the dense ids (origin*n + dest, n =
	// Fabric.Nodes()) of the blocks this transfer moves, when the
	// emitting builder recorded them (len(Payload) == Blocks). A
	// schedule whose transfers all carry payloads can be replayed and
	// delivery-verified by internal/exec; structural schedules (the
	// registry's "proposed", exchange.EmitStructural) leave it nil
	// and are measured without a replay.
	Payload []int32
}

// Segments returns the transfer's route legs: Segs when present,
// otherwise the single (Dim, Dir, Hops) leg.
func (tr Transfer) Segments() []Seg {
	if tr.Segs != nil {
		return tr.Segs
	}
	return []Seg{{Dim: tr.Dim, Dir: tr.Dir, Hops: tr.Hops}}
}

// TotalHops returns the hop count of the full route.
func (tr Transfer) TotalHops() int {
	if tr.Segs == nil {
		return tr.Hops
	}
	h := 0
	for _, s := range tr.Segs {
		h += s.Hops
	}
	return h
}

// PathLinks expands the transfer's route into the ordered list of
// unidirectional physical links it occupies on f.
func (tr Transfer) PathLinks(f topology.Fabric) []topology.Link {
	cur := tr.Src
	var ids []int32
	var links []topology.Link
	for _, s := range tr.Segments() {
		ids = f.AppendPathLinkIDs(ids[:0], cur, s.Dim, s.Dir, s.Hops)
		for _, id := range ids {
			links = append(links, f.LinkAt(int(id)))
		}
		cur = f.Advance(cur, s.Dim, s.Dir, s.Hops)
	}
	return links
}

// RouteString renders the route compactly: "dim0+h4" or
// "dim0+h3,dim1-h2" for multi-leg routes.
func (tr Transfer) RouteString() string {
	if tr.Segs == nil {
		return fmt.Sprintf("dim%d%sh%d", tr.Dim, tr.Dir, tr.Hops)
	}
	s := ""
	for i, seg := range tr.Segs {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("dim%d%sh%d", seg.Dim, seg.Dir, seg.Hops)
	}
	return s
}

func (tr Transfer) String() string {
	return fmt.Sprintf("%d->%d %s b%d", tr.Src, tr.Dst, tr.RouteString(), tr.Blocks)
}

// Step is one communication step. A step is either contention-free
// (the default, enforced by exec.Compile) or declared Shared, meaning
// its transfers may time-share physical links and the step's
// transmission time is serialized by its sharing factor: the most
// transfers that cross any one contention domain.
type Step struct {
	Transfers []Transfer
	// Shared declares that transfers in this step are allowed to
	// occupy the same unidirectional link; the executor charges the
	// link-sharing serialization factor instead of rejecting the step.
	Shared bool
}

// MaxBlocks returns the largest block count carried by any single
// transfer in the step; the step's transmission time is proportional
// to it.
func (s *Step) MaxBlocks() int {
	m := 0
	for _, tr := range s.Transfers {
		if tr.Blocks > m {
			m = tr.Blocks
		}
	}
	return m
}

// MaxHops returns the largest total hop count of any transfer in the
// step; the step's propagation delay is proportional to it.
func (s *Step) MaxHops() int {
	h := 0
	for _, tr := range s.Transfers {
		if th := tr.TotalHops(); th > h {
			h = th
		}
	}
	return h
}

// TotalBlocks sums the block counts of all transfers in the step.
func (s *Step) TotalBlocks() int {
	t := 0
	for _, tr := range s.Transfers {
		t += tr.Blocks
	}
	return t
}

// Phase is a named sequence of steps.
type Phase struct {
	Name  string
	Steps []Step
	// Rearrange is the number of blocks every node rearranges in the
	// data-rearrangement step associated with this phase (0 = none).
	// The executor sums it into Measure.RearrangedBlocks, which is how
	// the paper's (n+1)·N rearrangement accounting rides the IR. A
	// phase may carry a charge and no steps: a sparse schedule
	// (traffic.Prune) keeps such a phase, because its nodes still
	// re-sort the blocks they hold, but drops every step left with no
	// transfer, which costs no startup because a compiled schedule
	// knows in advance that the step is empty.
	Rearrange int
}

// Schedule is the full run: an ordered list of phases over a fabric
// (a torus, a swapped dragonfly, or any other topology.Fabric).
type Schedule struct {
	Fabric topology.Fabric
	Phases []Phase
	// Lattice, when positive, declares the schedule invariant under the
	// torus translations by Lattice nodes along any dimension:
	// translating every transfer of a step so, endpoints and payload ids
	// alike, gives the step's transfers again. exec.Compile checks the
	// claim and plans one node per translation class; the JSON export
	// and the digest do not carry it. See Sink.Lattice.
	Lattice int
}

// NumSteps counts every step of every phase, matching the paper's
// startup accounting (idle nodes still participate in the step).
func (sc *Schedule) NumSteps() int {
	n := 0
	for _, p := range sc.Phases {
		n += len(p.Steps)
	}
	return n
}

// EachStep visits every step in order.
func (sc *Schedule) EachStep(fn func(phase *Phase, stepIndex int, step *Step)) {
	for pi := range sc.Phases {
		p := &sc.Phases[pi]
		for si := range p.Steps {
			fn(p, si, &p.Steps[si])
		}
	}
}

// SumMaxBlocks is the schedule's message-transmission cost in block
// units: the sum over steps of the per-step maximum transfer size
// (steps are synchronous, so a step lasts as long as its largest
// message).
func (sc *Schedule) SumMaxBlocks() int {
	t := 0
	sc.EachStep(func(_ *Phase, _ int, s *Step) { t += s.MaxBlocks() })
	return t
}

// SumMaxHops is the schedule's propagation cost in hop units: the sum
// over steps of the per-step maximum hop count.
func (sc *Schedule) SumMaxHops() int {
	t := 0
	sc.EachStep(func(_ *Phase, _ int, s *Step) { t += s.MaxHops() })
	return t
}

// RearrangedBlocks sums the per-phase rearrangement annotations: the
// per-node rearranged-block cost of the whole schedule.
func (sc *Schedule) RearrangedBlocks() int {
	t := 0
	for _, p := range sc.Phases {
		t += p.Rearrange
	}
	return t
}

// HasPayload reports whether every transfer of the schedule carries
// its block payload, i.e. the schedule can be replayed and
// delivery-verified rather than only structurally checked.
func (sc *Schedule) HasPayload() bool {
	ok := true
	sc.EachStep(func(_ *Phase, _ int, s *Step) {
		for _, tr := range s.Transfers {
			if len(tr.Payload) != tr.Blocks {
				ok = false
			}
		}
	})
	return ok
}

// LinkUtilization returns, averaged over steps, the fraction of the
// torus's unidirectional links occupied by some transfer. The group
// phases of the Suh–Shin schedule keep exactly half of one dimension
// pair's links busy; low utilization is the price of strict
// contention-freedom.
func (sc *Schedule) LinkUtilization() float64 {
	total := len(sc.Fabric.Links())
	if total == 0 || sc.NumSteps() == 0 {
		return 0
	}
	sum := 0.0
	sc.EachStep(func(_ *Phase, _ int, s *Step) {
		used := make(map[topology.Link]bool)
		for _, tr := range s.Transfers {
			for _, l := range tr.PathLinks(sc.Fabric) {
				used[l] = true
			}
		}
		sum += float64(len(used)) / float64(total)
	})
	return sum / float64(sc.NumSteps())
}

// DestinationChanges counts, across the whole schedule, how many times
// any node's transfer destination differs from its previous one — the
// quantity behind the paper's claim (ii) that destinations remaining
// fixed over many steps makes the schedule amenable to optimizations
// (connection reuse, buffer caching). The first destination of a node
// does not count as a change.
func (sc *Schedule) DestinationChanges() int {
	last := make(map[topology.NodeID]topology.NodeID)
	changes := 0
	sc.EachStep(func(_ *Phase, _ int, s *Step) {
		for _, tr := range s.Transfers {
			if prev, ok := last[tr.Src]; ok && prev != tr.Dst {
				changes++
			}
			last[tr.Src] = tr.Dst
		}
	})
	return changes
}

// MaxDestinationChangesPerNode is DestinationChanges for the busiest
// node.
func (sc *Schedule) MaxDestinationChangesPerNode() int {
	last := make(map[topology.NodeID]topology.NodeID)
	changes := make(map[topology.NodeID]int)
	max := 0
	sc.EachStep(func(_ *Phase, _ int, s *Step) {
		for _, tr := range s.Transfers {
			if prev, ok := last[tr.Src]; ok && prev != tr.Dst {
				changes[tr.Src]++
				if changes[tr.Src] > max {
					max = changes[tr.Src]
				}
			}
			last[tr.Src] = tr.Dst
		}
	})
	return max
}

// ContentionError describes a physical link claimed by two transfers
// in the same step.
type ContentionError struct {
	Phase string
	Step  int
	Link  topology.Link
	A, B  Transfer
}

func (e *ContentionError) Error() string {
	return fmt.Sprintf("schedule: contention in phase %q step %d on link %v between [%v] and [%v]",
		e.Phase, e.Step, e.Link, e.A, e.B)
}

// OnePortError describes a node that sends or receives more than one
// message in a step.
type OnePortError struct {
	Phase string
	Step  int
	Node  topology.NodeID
	Role  string // "send" or "receive"
	A, B  Transfer
}

func (e *OnePortError) Error() string {
	return fmt.Sprintf("schedule: one-port violation in phase %q step %d: node %d %ss twice ([%v] and [%v])",
		e.Phase, e.Step, e.Node, e.Role, e.A, e.B)
}

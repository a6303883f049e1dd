package costmodel

import "fmt"

// Switching selects the network switching technique for completion-time
// conversion. The paper targets wormhole switching but states
// (Sections 2 and 6) that the algorithms apply equally to virtual
// cut-through, packet (store-and-forward) and circuit switching; the
// techniques differ in how hop count and message length compose.
type Switching int

const (
	// Wormhole pipelines flits: a contention-free step costs
	// t_s + b·m·t_c + h·t_l.
	Wormhole Switching = iota
	// VirtualCutThrough behaves like wormhole when (as in these
	// schedules) messages never block.
	VirtualCutThrough
	// StoreAndForward retransmits the whole message at every hop:
	// t_s + h·(b·m·t_c + t_l).
	StoreAndForward
	// Circuit sets up the full path first, then streams:
	// t_s + h·t_l (setup) + b·m·t_c. Identical total to wormhole in
	// this model.
	Circuit
)

func (s Switching) String() string {
	switch s {
	case Wormhole:
		return "wormhole"
	case VirtualCutThrough:
		return "vct"
	case StoreAndForward:
		return "store-and-forward"
	case Circuit:
		return "circuit"
	default:
		return fmt.Sprintf("Switching(%d)", int(s))
	}
}

// StepTime returns the duration of one communication step carrying
// blocks m-byte blocks over hops hops under the given switching mode.
func (p Params) StepTime(sw Switching, blocks, hops int) float64 {
	trans := p.Tc * float64(blocks*p.M)
	prop := p.Tl * float64(hops)
	switch sw {
	case StoreAndForward:
		return p.Ts + float64(hops)*(p.Tc*float64(blocks*p.M)+p.Tl)
	case Wormhole, VirtualCutThrough, Circuit:
		return p.Ts + trans + prop
	default:
		return p.Ts + trans + prop
	}
}

// StepMeasure describes one step for switching-aware completion:
// the critical message size and hop distance.
type StepMeasure struct {
	Blocks int
	Hops   int
}

// CompletionSwitched sums switching-aware step times plus the
// rearrangement cost (switching-independent).
func (p Params) CompletionSwitched(sw Switching, steps []StepMeasure, rearrangedBlocks int) float64 {
	total := p.Rho * float64(rearrangedBlocks*p.M)
	for _, s := range steps {
		total += p.StepTime(sw, s.Blocks, s.Hops)
	}
	return total
}

// ProposedSteps returns the per-step measures of the proposed
// algorithm on dims in schedule order: the first n phases each have
// a1/4−1 steps of 4 hops with decreasing slab sizes, then n quad steps
// (2 hops) and n bit steps (1 hop) of N/2 blocks.
func ProposedSteps(dims []int) []StepMeasure {
	n := len(dims)
	a1 := dims[0]
	N := prod(dims)
	var steps []StepMeasure
	slab := 4 * N / a1 // blocks per stride-4 slab for dim-0 movers
	for p := 0; p < n; p++ {
		for s := 1; s <= a1/4-1; s++ {
			steps = append(steps, StepMeasure{Blocks: (a1/4 - s) * slab, Hops: 4})
		}
	}
	for s := 0; s < n; s++ {
		steps = append(steps, StepMeasure{Blocks: N / 2, Hops: 2})
	}
	for s := 0; s < n; s++ {
		steps = append(steps, StepMeasure{Blocks: N / 2, Hops: 1})
	}
	return steps
}

// RingSteps returns the per-step measures of the stride-1 ring
// baseline: for each dimension ai−1 steps of one hop with decreasing
// slabs.
func RingSteps(dims []int) []StepMeasure {
	N := prod(dims)
	var steps []StepMeasure
	for _, ai := range dims {
		slab := N / ai
		for s := 1; s <= ai-1; s++ {
			steps = append(steps, StepMeasure{Blocks: (ai - s) * slab, Hops: 1})
		}
	}
	return steps
}

package exchange

import (
	"fmt"

	"torusx/internal/schedule"
	"torusx/internal/topology"
)

// This file implements the virtual-node extension of Section 6: tori
// whose per-dimension sizes are not multiples of four are handled by
// padding each dimension up to the next multiple of four and running
// the unmodified algorithm on the padded torus, with virtual nodes
// acting as relays that start and end with no blocks of their own.
//
// The paper leaves the physical realisation of virtual nodes open. We
// map every virtual node onto a real host by coordinate clamping
// (host(c)[i] = min(c[i], real_i − 1)) and report how much the hosts
// are overloaded: within a step a host may have to inject several
// messages (its own plus its virtual tenants'), which on a one-port
// machine serializes. HostLoads counts the resulting steps after
// serialization, a faithful upper-bound cost for the extension.

// PadDims rounds every dimension up to the next multiple of four
// (minimum 4).
func PadDims(dims []int) []int {
	out := make([]int, len(dims))
	for i, d := range dims {
		p := (d + topology.GroupStride - 1) / topology.GroupStride * topology.GroupStride
		if p < topology.GroupStride {
			p = topology.GroupStride
		}
		out[i] = p
	}
	return out
}

// VirtualTori returns the torus of dims and the multiple-of-four torus
// the virtual-node extension pads it to. dims must be sorted
// non-increasing with at least two dimensions, every size >= 1.
func VirtualTori(dims []int) (real, padded *topology.Torus, err error) {
	if real, err = topology.New(dims...); err != nil {
		return nil, nil, err
	}
	if !real.SortedNonIncreasing() {
		return nil, nil, fmt.Errorf("exchange: dimensions %v must be non-increasing", dims)
	}
	if padded, err = topology.New(PadDims(dims)...); err != nil {
		return nil, nil, err
	}
	if err := padded.ValidateForExchange(); err != nil {
		return nil, nil, err
	}
	return real, padded, nil
}

// HostLoads serializes sc, a schedule on padded, onto the real hosts
// of the clamping host map: within each step a host injects the
// messages of all its tenants one after another, while a transfer
// between two tenants of one host is no message. It returns the
// schedule's step count after serialization, in which a step with
// only host-local traffic still costs one startup, and the largest
// number of messages one host injects in a step (1 = no overload).
func HostLoads(real, padded *topology.Torus, sc *schedule.Schedule) (serializedSteps, maxLoad int) {
	host := make([]topology.NodeID, padded.Nodes())
	padded.EachNode(func(id topology.NodeID, c topology.Coord) {
		h := make(topology.Coord, len(c))
		for i, v := range c {
			h[i] = min(v, real.Dim(i)-1)
		}
		// Hosts are named by padded ids, like transfer endpoints.
		host[id] = padded.ID(h)
	})
	sends := make([]int, padded.Nodes())
	sc.EachStep(func(_ *schedule.Phase, _ int, st *schedule.Step) {
		clear(sends)
		load := 1
		for _, tr := range st.Transfers {
			if hs := host[tr.Src]; hs != host[tr.Dst] {
				sends[hs]++
				load = max(load, sends[hs])
			}
		}
		serializedSteps += load
		maxLoad = max(maxLoad, load)
	})
	return serializedSteps, maxLoad
}

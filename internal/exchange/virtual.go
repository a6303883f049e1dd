package exchange

import (
	"fmt"

	"torusx/internal/block"
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
// machine serializes. HostSerializedSteps is the resulting step count
// after serialization, a faithful upper-bound cost for the extension.

// VirtualResult is the outcome of a padded run.
type VirtualResult struct {
	// Real is the requested torus (arbitrary sizes >= 1, sorted
	// non-increasing).
	Real *topology.Torus
	// Padded is the multiple-of-four torus the algorithm ran on.
	Padded *topology.Torus
	// RealNodes lists the padded-torus ids of the real nodes.
	RealNodes []topology.NodeID
	// Run is the underlying padded execution (buffers indexed by
	// padded node id).
	Run *Result
	// HostSerializedSteps is the schedule length after serializing,
	// within each step, the inter-host messages each host must inject.
	HostSerializedSteps int
	// MaxHostLoad is the largest number of inter-host messages any
	// host injects in one step (1 means no overload).
	MaxHostLoad int
}

// RunSparse executes the exchange carrying an arbitrary set of blocks
// (a many-to-many personalized exchange): the routing predicates act
// per block, so any traffic matrix rides the same n+2-phase schedule.
// Each block starts at its Origin and is delivered to its Dest;
// RunWithBuffers checks the torus.
func RunSparse(t *topology.Torus, blocks []block.Block, opt Options) (*Result, error) {
	bufs := make([]*block.Buffer, t.Nodes())
	for i := range bufs {
		bufs[i] = block.NewBuffer(0)
	}
	for _, b := range blocks {
		if int(b.Origin) < 0 || int(b.Origin) >= t.Nodes() || int(b.Dest) < 0 || int(b.Dest) >= t.Nodes() {
			return nil, fmt.Errorf("exchange: block %v out of range", b)
		}
		bufs[b.Origin].Add(b)
	}
	return RunWithBuffers(t, bufs, opt)
}

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

// RunVirtual executes the exchange among the nodes of an arbitrary
// torus shape via the virtual-node extension. dims must be sorted
// non-increasing with at least two dimensions (RunWithBuffers checks
// the padded torus), every size >= 1.
func RunVirtual(dims []int, opt Options) (*VirtualResult, error) {
	real, err := topology.New(dims...)
	if err != nil {
		return nil, err
	}
	if !real.SortedNonIncreasing() {
		return nil, fmt.Errorf("exchange: dimensions %v must be non-increasing", dims)
	}
	padded := topology.MustNew(PadDims(dims)...)

	// Real nodes are padded coordinates within the real bounds.
	var realNodes []topology.NodeID
	isReal := make([]bool, padded.Nodes())
	padded.EachNode(func(id topology.NodeID, c topology.Coord) {
		for i, v := range c {
			if v >= dims[i] {
				return
			}
		}
		isReal[id] = true
		realNodes = append(realNodes, id)
	})

	// Initial buffers: real pairs only; virtual nodes start empty.
	bufs := make([]*block.Buffer, padded.Nodes())
	for id := range bufs {
		if !isReal[id] {
			bufs[id] = block.NewBuffer(0)
			continue
		}
		buf := block.NewBuffer(len(realNodes))
		for _, dest := range realNodes {
			buf.Add(block.Block{Origin: topology.NodeID(id), Dest: dest})
		}
		bufs[id] = buf
	}

	res, err := RunWithBuffers(padded, bufs, opt)
	if err != nil {
		return nil, err
	}

	vr := &VirtualResult{
		Real:      real,
		Padded:    padded,
		RealNodes: realNodes,
		Run:       res,
	}
	vr.hostLoads()
	return vr, nil
}

// hostOf maps a padded node onto its real host by clamping.
func hostOf(real, padded *topology.Torus, id topology.NodeID) topology.NodeID {
	c := padded.CoordOf(id)
	h := make(topology.Coord, len(c))
	for i, v := range c {
		if max := real.Dim(i) - 1; v > max {
			v = max
		}
		h[i] = v
	}
	// Host id expressed in padded-torus ids so it can be compared
	// against transfer endpoints.
	return padded.ID(h)
}

// hostLoads computes serialization statistics of the recorded schedule
// under the clamping host map.
func (vr *VirtualResult) hostLoads() {
	sends := make(map[topology.NodeID]int)
	vr.Run.Schedule.EachStep(func(_ *schedule.Phase, _ int, st *schedule.Step) {
		for k := range sends {
			delete(sends, k)
		}
		load := 0
		for _, tr := range st.Transfers {
			hs := hostOf(vr.Real, vr.Padded, tr.Src)
			hd := hostOf(vr.Real, vr.Padded, tr.Dst)
			if hs == hd {
				continue // tenant-local: no physical message
			}
			sends[hs]++
			if sends[hs] > load {
				load = sends[hs]
			}
		}
		if load == 0 {
			// A step with only host-local traffic still synchronizes;
			// charge one startup slot.
			load = 1
		}
		vr.HostSerializedSteps += load
		if load > vr.MaxHostLoad {
			vr.MaxHostLoad = load
		}
	})
}

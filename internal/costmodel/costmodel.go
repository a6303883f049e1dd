// Package costmodel implements the performance model of Section 2 of
// Suh & Shin (ICPP'98) and the closed-form completion-time expressions
// of Tables 1 and 2.
//
// A communication step transmitting b blocks of m bytes over h hops
// costs t_s + b·m·t_c + h·t_l; a data rearrangement touching b blocks
// costs b·m·ρ. Completion time sums the per-step costs along the
// critical node (steps are synchronous, so each step lasts as long as
// its largest message).
package costmodel

import "fmt"

// Params are the machine parameters of the model. Times are in
// microseconds.
type Params struct {
	Ts  float64 // startup time per message
	Tc  float64 // transmission time per byte
	Tl  float64 // propagation delay per hop
	Rho float64 // rearrangement time per byte
	M   int     // block size in bytes
}

func (p Params) String() string {
	return fmt.Sprintf("ts=%gus tc=%gus/B tl=%gus/hop rho=%gus/B m=%dB", p.Ts, p.Tc, p.Tl, p.Rho, p.M)
}

// T3D returns parameters of a Cray T3D-class machine of the paper's
// era with block size m: tens of microseconds of software startup,
// ~100 MB/s channel bandwidth, sub-microsecond per-hop delay, and
// memory-copy rearrangement around 200 MB/s. The paper reports no
// absolute constants; these are representative values for reproducing
// the comparison's shape.
func T3D(m int) Params {
	return Params{Ts: 25, Tc: 0.01, Tl: 0.05, Rho: 0.005, M: m}
}

// LowStartup returns parameters of a network with aggressive
// hardware-supported message initiation, where startup no longer
// dominates; useful for exploring the crossover against the
// minimum-startup algorithm [9].
func LowStartup(m int) Params {
	return Params{Ts: 2, Tc: 0.01, Tl: 0.05, Rho: 0.005, M: m}
}

// Measure is the outcome of a simulated run in model units: startups,
// transmitted blocks along the critical node, propagation hops and
// rearranged blocks per node.
type Measure struct {
	Steps            int
	Blocks           int
	Hops             int
	RearrangedBlocks int
}

// Completion converts a measured run into wall-clock microseconds.
func (p Params) Completion(m Measure) float64 {
	return p.Ts*float64(m.Steps) +
		p.Tc*float64(m.Blocks*p.M) +
		p.Tl*float64(m.Hops) +
		p.Rho*float64(m.RearrangedBlocks*p.M)
}

// Breakdown reports the four components of Completion separately, in
// the order startup, transmission, propagation, rearrangement.
func (p Params) Breakdown(m Measure) (startup, trans, prop, rearr float64) {
	return p.Ts * float64(m.Steps),
		p.Tc * float64(m.Blocks*p.M),
		p.Tl * float64(m.Hops),
		p.Rho * float64(m.RearrangedBlocks*p.M)
}

// prod returns the product of the dimension sizes.
func prod(dims []int) int {
	p := 1
	for _, d := range dims {
		p *= d
	}
	return p
}

// ProposedND returns the closed-form measure of Table 1 for the
// proposed algorithm on an a1×…×an torus (a1 >= … >= an, multiples of
// four): n(a1/4+1) startups, (n/8)(a1+4)·Πai blocks, n(a1−1) hops and
// (n+1)·Πai rearranged blocks.
func ProposedND(dims []int) Measure {
	n := len(dims)
	a1 := dims[0]
	N := prod(dims)
	return Measure{
		Steps:            n * (a1/4 + 1),
		Blocks:           n * (a1 + 4) * N / 8,
		Hops:             n * (a1 - 1),
		RearrangedBlocks: (n + 1) * N,
	}
}

// ProposedNonContiguousSends returns how many transmissions of the
// proposed algorithm on dims are not one contiguous run of the
// sender's data array: none for n = 2, and 2(n−2)·Πai for n >= 3,
// where steps 3..n of the quad and bit phases each send two disjoint
// runs at every node (EXPERIMENTS.md). The block-level simulator's
// NonContiguousSends counter is held to this form.
func ProposedNonContiguousSends(dims []int) int {
	n := len(dims)
	if n < 3 {
		return 0
	}
	return 2 * (n - 2) * prod(dims)
}

// Proposed2D is ProposedND for the paper's R×C presentation (R <= C):
// (C/2+2) startups, RC(C+4)/4 blocks, 2(C−1) hops, 3RC rearranged
// blocks.
func Proposed2D(r, c int) Measure {
	return ProposedND([]int{c, r})
}

// pow2 returns 2^k.
func pow2(k int) int { return 1 << uint(k) }

// Tseng2D returns the Table 2 column of the algorithm of Tseng, Gupta
// and Panda [13] for a 2^d × 2^d torus: (2^{d−1}+2) startups,
// 2^{3d−2}+2^{2d} blocks, (2^{d−1}+1)·2^{2d} rearranged blocks and
// (2^{2d−1}+10)/3 hops.
func Tseng2D(d int) Measure {
	return Measure{
		Steps:            pow2(d-1) + 2,
		Blocks:           pow2(3*d-2) + pow2(2*d),
		Hops:             (pow2(2*d-1) + 10) / 3,
		RearrangedBlocks: (pow2(d-1) + 1) * pow2(2*d),
	}
}

// SuhYal2D returns the Table 2 column of the minimum-startup algorithm
// of Suh and Yalamanchili [9] for a 2^d × 2^d torus: (3d−3) startups,
// 9·2^{3d−4}+(d²−5d+3)·2^{2d−1} blocks (also its rearranged-block
// count) and 13·2^{d−2}−3d−3 hops.
func SuhYal2D(d int) Measure {
	vol := 9*pow2(3*d-4) + (d*d-5*d+3)*pow2(2*d-1)
	return Measure{
		Steps:            3*d - 3,
		Blocks:           vol,
		Hops:             13*pow2(d-2) - 3*d - 3,
		RearrangedBlocks: vol,
	}
}

// ProposedPow2 returns the Table 2 column of the proposed algorithm
// for a 2^d × 2^d torus. It equals ProposedND([2^d, 2^d]).
func ProposedPow2(d int) Measure {
	return ProposedND([]int{pow2(d), pow2(d)})
}

// Direct returns the measure of the non-combining baseline: each node
// sends its N−1 blocks one destination at a time (N−1 startups of a
// single m-byte block). Hops is the sum over the schedule of the
// per-step maximum hop distance; with pairing chosen so partner i is
// i hops away in id order, we bound it with the torus diameter per
// step times steps — callers that simulate it should prefer measured
// values; this closed form uses the average distance approximation
// N−1 steps × avgHops.
func Direct(dims []int, avgHops float64) Measure {
	N := prod(dims)
	return Measure{
		Steps:            N - 1,
		Blocks:           N - 1,
		Hops:             int(avgHops * float64(N-1)),
		RearrangedBlocks: 0,
	}
}

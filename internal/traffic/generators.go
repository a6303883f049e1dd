package traffic

import (
	"torusx/internal/block"
	"torusx/internal/topology"
)

// The generators below model the workload families the ROADMAP's
// arbitrary-traffic item names: uniformly random sparse matrices,
// neighbor (halo) exchanges like the particle-filter resampling of
// SNIPPETS.md snippet 3, hotspot/incast skew, and permutation traffic
// (transposes, shuffles). All are seed-deterministic through a private
// splitmix64 stream — not math/rand — so the byte-identical matrix
// comes back for a given (generator, n, parameters, seed) on every
// platform and Go release, which fuzz corpora and benchmark ledgers
// rely on.

// rng is a splitmix64 stream: tiny, fast, and fully specified here so
// generator output can never drift with the standard library.
type rng struct{ s uint64 }

func newRNG(seed int64) *rng {
	return &rng{s: uint64(seed) ^ 0x9E3779B97F4A7C15}
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float64 returns a uniform value in [0, 1).
func (r *rng) float64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// intn returns a uniform value in [0, n). n must be positive.
func (r *rng) intn(n int) int {
	return int(r.next() % uint64(n))
}

// Uniform returns the uniformly sparse matrix on n nodes: every
// (origin, dest) pair — the diagonal included — is kept independently
// with probability p. p <= 0 yields the empty matrix, p >= 1 the full
// all-to-all matrix.
func Uniform(n int, p float64, seed int64) Matrix {
	r := newRNG(seed)
	var bs []block.Block
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if r.float64() < p {
				bs = append(bs, block.Block{Origin: topology.NodeID(i), Dest: topology.NodeID(j)})
			}
		}
	}
	return newNormalized(n, bs)
}

// Ring returns the halo-neighbor exchange on n nodes: every node sends
// one block to each distinct non-self node within radius hops on the
// id ring, (i±d) mod n for d = 1..radius — the communication pattern
// of a 1-D domain decomposition with a radius-wide ghost region (and,
// for radius 1, the particle-filter neighbor exchange). Deterministic
// with no seed; radius < 1 yields the empty matrix, and a radius of n
// or more the same matrix as radius n.
func Ring(n, radius int) Matrix {
	radius = min(radius, n)
	var bs []block.Block
	dest := make([]bool, n)
	for i := 0; i < n; i++ {
		for j := range dest {
			dest[j] = false
		}
		for d := 1; d <= radius; d++ {
			dest[((i+d)%n+n)%n] = true
			dest[((i-d)%n+n)%n] = true
		}
		dest[i] = false
		for j := 0; j < n; j++ {
			if dest[j] {
				bs = append(bs, block.Block{Origin: topology.NodeID(i), Dest: topology.NodeID(j)})
			}
		}
	}
	return newNormalized(n, bs)
}

// Hotspot returns the incast matrix on n nodes: k distinct hot
// destinations are drawn from the seeded stream, and every node sends
// one block to every hot destination (a node that is itself hot keeps
// a self block, matching the paper's B[i,i]-stays-in-place model).
// The column marginals are maximally skewed: n for each hot sink,
// zero elsewhere. k is clamped to [0, n].
func Hotspot(n, k int, seed int64) Matrix {
	if k > n {
		k = n
	}
	if k < 0 {
		k = 0
	}
	r := newRNG(seed)
	// Seeded Fisher–Yates prefix: the first k entries of a shuffle.
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.intn(n-i)
		ids[i], ids[j] = ids[j], ids[i]
	}
	hot := append([]int(nil), ids[:k]...)
	var bs []block.Block
	for i := 0; i < n; i++ {
		for _, h := range hot {
			bs = append(bs, block.Block{Origin: topology.NodeID(i), Dest: topology.NodeID(h)})
		}
	}
	return newNormalized(n, bs)
}

// Permutation returns a random one-to-one matrix on n nodes: a seeded
// Fisher–Yates permutation π with one block (i, π(i)) per node. Fixed
// points keep their self block. Every row and column marginal is
// exactly one — the opposite extreme from Hotspot's skew.
func Permutation(n int, seed int64) Matrix {
	r := newRNG(seed)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := 0; i < n-1; i++ {
		j := i + r.intn(n-i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	bs := make([]block.Block, 0, n)
	for i, d := range perm {
		bs = append(bs, block.Block{Origin: topology.NodeID(i), Dest: topology.NodeID(d)})
	}
	return newNormalized(n, bs)
}

package traffic

import (
	"testing"

	"torusx/internal/block"
	"torusx/internal/exec"
	"torusx/internal/oracle"
	"torusx/internal/topology"
)

// fuzzTorusShapes is the torus shape table indexed by the first
// fuzz-input byte: a ring, a degenerate 2-ary mesh dimension, square
// and rectangular 2D tori, and a 3D shape. All are small enough that
// the dense direct schedule builds in microseconds per iteration.
var fuzzTorusShapes = [][]int{
	{4}, {8}, {2, 2}, {4, 4}, {8, 8}, {4, 4, 4},
}

// FuzzTorusSparseTraffic is the torus twin of FuzzDragonflySparse in
// internal/dfly: arbitrary bytes become a (shape, sparse matrix) pair
// that is driven through matrix normalization, the generic prune pass
// over the dense direct schedule, and a compiled delivery-verified
// replay. Input format: byte 0 selects the shape from fuzzTorusShapes
// (mod len); the rest is consumed pairwise as int8 (origin, dest)
// blocks. In-range duplicate-free inputs must normalize, prune,
// compile, and replay cleanly; everything else must be rejected by
// New with an error (never a panic or a silent misdelivery).
func FuzzTorusSparseTraffic(f *testing.F) {
	f.Add([]byte{})                    // 4-ring, empty traffic
	f.Add([]byte{3, 0, 5, 5, 0, 1, 4}) // 4x4, valid traffic
	f.Add([]byte{3, 0, 99})            // 4x4, destination out of range
	f.Add([]byte{4, 0, 1, 0, 1})       // 8x8, duplicate block
	f.Add([]byte{5, 0, 251})           // 4x4x4, negative dest (int8)
	f.Add([]byte{2, 3, 3})             // 2x2, self block only
	full := make([]byte, 0, 1+2*8*8)
	full = append(full, 1)
	for s := 0; s < 8; s++ {
		for d := 0; d < 8; d++ {
			full = append(full, byte(s), byte(d))
		}
	}
	f.Add(full) // the full 8-ring all-to-all matrix as a sparse instance
	f.Fuzz(func(t *testing.T, data []byte) {
		shape := 0
		if len(data) > 0 {
			shape = int(data[0]) % len(fuzzTorusShapes)
			data = data[1:]
		}
		tor := topology.MustNew(fuzzTorusShapes[shape]...)
		n := tor.Nodes()
		blocks := make([]block.Block, 0, len(data)/2)
		for i := 0; i+1 < len(data); i += 2 {
			// int8 so the fuzzer reaches negative values too.
			blocks = append(blocks, block.Block{
				Origin: topology.NodeID(int8(data[i])),
				Dest:   topology.NodeID(int8(data[i+1])),
			})
		}
		seen := make(map[block.Block]bool, len(blocks))
		valid := true
		for _, b := range blocks {
			if int(b.Origin) < 0 || int(b.Origin) >= n || int(b.Dest) < 0 || int(b.Dest) >= n || seen[b] {
				valid = false
				break
			}
			seen[b] = true
		}
		m, err := New(n, blocks)
		if valid && err != nil {
			t.Fatalf("valid traffic %v on %s rejected: %v", blocks, tor, err)
		}
		if !valid {
			if err == nil {
				t.Fatalf("invalid traffic %v on %s accepted", blocks, tor)
			}
			return
		}
		pruned, err := Prune(direct(t, tor), m)
		if err != nil {
			t.Fatalf("%s on %s: prune rejected: %v", m, tor, err)
		}
		if err := oracle.Check(pruned); err != nil {
			t.Fatalf("%s on %s: pruned schedule fails checks: %v", m, tor, err)
		}
		res, err := exec.Run(pruned, exec.Options{Traffic: m.Blocks()})
		if err != nil {
			t.Fatalf("%s on %s: executor rejected delivery: %v", m, tor, err)
		}
		if m.NonSelf() > 0 && !res.Replayed {
			t.Fatalf("%s on %s: moving matrix was not replayed", m, tor)
		}
	})
}

// FuzzParseSpec: every -traffic spec returns an error or a matrix over
// exactly the nodes asked for that New accepts as it stands — in
// range, duplicate-free and canonical. Seeds are the specs the cmd
// tools' usage text (SpecHelp) shows; the node count is 0 to 64.
func FuzzParseSpec(f *testing.F) {
	for _, spec := range append([]string{"", "full", "uniform", "uniform:p=0.25,seed=1", "ring:radius=2",
		"hotspot:k=4,seed=1", "perm:seed=1", "halo", "incast:k=99", "ring:radius=2147483647", "uniform:p=NaN",
		"uniform:p=1,p=2", "perm:seed", "bogus"}, CannedSpecs()...) {
		f.Add(spec, uint8(16))
	}
	f.Fuzz(func(t *testing.T, spec string, nb uint8) {
		n := int(nb) % 65
		m, err := ParseSpec(spec, n)
		if err != nil {
			return
		}
		if m.Nodes() != n {
			t.Fatalf("ParseSpec(%q, %d) built a matrix over %d nodes", spec, n, m.Nodes())
		}
		again, err := New(n, m.Blocks())
		if err != nil {
			t.Fatalf("ParseSpec(%q, %d): New rejects its matrix: %v", spec, n, err)
		}
		if again.Fingerprint() != m.Fingerprint() {
			t.Fatalf("ParseSpec(%q, %d) is not canonical", spec, n)
		}
	})
}

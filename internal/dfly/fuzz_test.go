package dfly_test

import (
	"testing"

	"torusx/internal/block"
	"torusx/internal/exec"
	"torusx/internal/oracle"
	"torusx/internal/topology"
)

// fuzzDflyShapes is the D3(K,M) shape table indexed by the first
// fuzz-input byte: degenerate single-class fabrics, the smallest shape
// with unwired ports (even M), and shapes with real local rings and
// multiple global classes.
var fuzzDflyShapes = [][2]int{
	{1, 2}, {1, 4}, {2, 2}, {2, 3}, {2, 4}, {3, 3},
}

// FuzzDragonflySparse exercises the traffic validation, port-ordered
// routing, and delivery paths of the dragonfly sparse exchange with
// arbitrary block lists. Input format mirrors FuzzAllToAllSparse at
// the repo root: byte 0 selects the shape from fuzzDflyShapes (mod
// len); the rest is consumed pairwise as int8 (origin, dest) blocks.
// In-range duplicate-free inputs must build a checked schedule that
// the executor replays and delivery-verifies; everything else must be
// rejected with an error (never a panic or a silent misdelivery).
func FuzzDragonflySparse(f *testing.F) {
	f.Add([]byte{})                    // D3(1,2), empty traffic
	f.Add([]byte{3, 0, 5, 5, 0, 1, 4}) // D3(2,3), valid cross-group traffic
	f.Add([]byte{3, 0, 99})            // D3(2,3), destination out of range
	f.Add([]byte{4, 0, 1, 0, 1})       // D3(2,4), duplicate block
	f.Add([]byte{5, 0, 251})           // D3(3,3), negative dest (int8)
	f.Add([]byte{2, 3, 3})             // D3(2,2), self block only
	full := make([]byte, 0, 1+2*8*8)
	full = append(full, 2)
	for s := 0; s < 8; s++ {
		for d := 0; d < 8; d++ {
			full = append(full, byte(s), byte(d))
		}
	}
	f.Add(full) // the full D3(2,2) all-to-all matrix as a sparse instance
	f.Fuzz(func(t *testing.T, data []byte) {
		shape := 0
		if len(data) > 0 {
			shape = int(data[0]) % len(fuzzDflyShapes)
			data = data[1:]
		}
		d := topology.MustNewDragonfly(fuzzDflyShapes[shape][0], fuzzDflyShapes[shape][1])
		n := d.Nodes()
		traffic := make([]block.Block, 0, len(data)/2)
		for i := 0; i+1 < len(data); i += 2 {
			// int8 so the fuzzer reaches negative values too.
			traffic = append(traffic, block.Block{
				Origin: topology.NodeID(int8(data[i])),
				Dest:   topology.NodeID(int8(data[i+1])),
			})
		}
		seen := make(map[block.Block]bool, len(traffic))
		valid := true
		for _, b := range traffic {
			if int(b.Origin) < 0 || int(b.Origin) >= n || int(b.Dest) < 0 || int(b.Dest) >= n || seen[b] {
				valid = false
				break
			}
			seen[b] = true
		}
		sc, err := dimExchange(d, traffic)
		if valid && err != nil {
			t.Fatalf("valid traffic %v on %s rejected: %v", traffic, d, err)
		}
		if !valid {
			if err == nil {
				t.Fatalf("invalid traffic %v on %s accepted", traffic, d)
			}
			return
		}
		if err := oracle.Check(sc); err != nil {
			t.Fatalf("traffic %v on %s: built schedule fails checks: %v", traffic, d, err)
		}
		if _, err := exec.Run(sc, exec.Options{Traffic: traffic}); err != nil {
			t.Fatalf("traffic %v on %s: executor rejected delivery: %v", traffic, d, err)
		}
	})
}

package torusx_test

import (
	"fmt"

	"torusx"
)

// The paper's running example: a 12x12 torus needs C/2+2 = 8 startups
// for the full all-to-all personalized exchange.
func ExampleAllToAll() {
	tor, _ := torusx.NewTorus(12, 12)
	rep, err := torusx.AllToAll(tor)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("startups=%d blocks=%d hops=%d rearranged=%d\n",
		rep.Measure.Steps, rep.Measure.Blocks, rep.Measure.Hops, rep.Measure.RearrangedBlocks)
	// Output:
	// startups=8 blocks=576 hops=22 rearranged=432
}

// Closed-form Table 1 prediction without running a simulation.
func ExamplePredict() {
	m := torusx.Predict(12, 12, 12)
	fmt.Printf("steps=%d blocks=%d\n", m.Steps, m.Blocks)
	// Output:
	// steps=12 blocks=10368
}

// Non-multiple-of-four tori run through the virtual-node extension.
func ExampleAllToAllArbitrary() {
	rep, err := torusx.AllToAllArbitrary(6, 5)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("real=%d padded=%v\n", rep.RealNodes, rep.PaddedDims)
	// Output:
	// real=30 padded=[8 8]
}

// Completion time under Cray T3D-class machine parameters.
func ExampleReport_Completion() {
	tor, _ := torusx.NewTorus(8, 8)
	rep, _ := torusx.AllToAll(tor)
	us := rep.Completion(torusx.T3DParams(64))
	fmt.Printf("%.0f us\n", us)
	// Output:
	// 335 us
}

// Real payloads follow the block ids the compiled exchange delivers.
func ExampleExchangeData() {
	tor, _ := torusx.NewTorus(4, 4)
	n := tor.Nodes()
	data := make([][][]byte, n)
	for i := range data {
		data[i] = make([][]byte, n)
		for j := range data[i] {
			data[i][j] = []byte{byte(i), byte(j)}
		}
	}
	out, _ := torusx.ExchangeData(tor, data)
	fmt.Printf("node 3 received from node 9: %v\n", out[3][9])
	// Output:
	// node 3 received from node 9: [9 3]
}

// The collective suite shares the substrate: a broadcast on an
// arbitrary-shaped torus.
func ExampleBroadcast() {
	tor, _ := torusx.NewTorus(5, 3)
	rep, err := torusx.Broadcast(tor, 7)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("nodes=%d verified\n", rep.Nodes)
	// Output:
	// nodes=15 verified
}

// Comparing the proposed algorithm against the non-combining baseline.
func ExampleCompare() {
	prop, _ := torusx.Compare(torusx.Proposed, 8, 8)
	dir, _ := torusx.Compare(torusx.Direct, 8, 8)
	fmt.Printf("startups: proposed=%d direct=%d\n", prop.Steps, dir.Steps)
	// Output:
	// startups: proposed=6 direct=63
}

// Quickstart: run the Suh-Shin all-to-all personalized exchange on a
// 12x12 torus (the paper's running example), verify it, and print the
// measured costs next to the closed-form predictions of Table 1.
package main

import (
	"fmt"
	"log"

	"torusx"
)

func main() {
	tor, err := torusx.NewTorus(12, 12)
	if err != nil {
		log.Fatal(err)
	}

	// Run the proposed algorithm's compiled program: every step was
	// checked for contention when it was compiled, and the replay
	// verifies delivery.
	rep, err := torusx.AllToAll(tor)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("all-to-all personalized exchange on a %v torus (%d nodes)\n",
		rep.Dims, rep.Nodes)
	fmt.Printf("phases: %d (2 group ring-scatters + quad + bit)\n\n", rep.Phases)

	predicted := torusx.Predict(12, 12)
	fmt.Println("cost component        measured   predicted (Table 1)")
	fmt.Printf("startups              %8d   %9d\n", rep.Measure.Steps, predicted.Steps)
	fmt.Printf("blocks (critical)     %8d   %9d\n", rep.Measure.Blocks, predicted.Blocks)
	fmt.Printf("propagation hops      %8d   %9d\n", rep.Measure.Hops, predicted.Hops)
	fmt.Printf("rearranged blocks     %8d   %9d\n", rep.Measure.RearrangedBlocks, predicted.RearrangedBlocks)

	params := torusx.T3DParams(64)
	fmt.Printf("\ncompletion time with %v: %.1f us\n", params, rep.Completion(params))

	fmt.Printf("\nschedule overview:\n%s", rep.Summary())
}

//go:build bigshapes

package exchange

// bigShapes are the shapes too slow for the tier-1 loop, which the
// tests that hold one builder to another add when the binary is built
// with -tags bigshapes (a CI step runs them on every push):
//
//	go test -tags bigshapes -run 'TestPayloadScheduleMatchesRun|TestStructuralContentionFreeAtScale' ./internal/exchange
var bigShapes = [][]int{{12, 12, 12}, {32, 32}}

// bigStructuralShapes are the structural schedule's big rows, which
// TestStructuralContentionFreeAtScale adds under the same tag.
var bigStructuralShapes = [][]int{
	{32, 32, 16},     // 16384 nodes, 3D
	{16, 16, 16, 16}, // 65536 nodes, 4D
	{8, 8, 8, 8, 8},  // 32768 nodes, 5D
	{100, 96},        // large non-power-of-two
}

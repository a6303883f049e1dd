//go:build !bigshapes

package exchange

// bigShapes are the shapes too slow for the tier-1 loop, which the
// tests that hold one builder to another add when the binary is built
// with -tags bigshapes (a CI step runs them on every push):
//
//	go test -tags bigshapes -run 'TestPayloadScheduleMatchesRun|TestStructuralContentionFreeAtScale' ./internal/exchange
var bigShapes [][]int

// bigStructuralShapes are the structural schedule's big rows, which
// TestStructuralContentionFreeAtScale adds under the same tag.
var bigStructuralShapes [][]int

//go:build bigshapes

package exec_test

import (
	"testing"

	"torusx/internal/exec"
)

// TestRingDescriptorCensus32x32 pins ring@32x32's descriptors by
// shape, as TestRingDescriptorCensus16 does at 16x16: 3.34 of the 4.55
// MiB core that TestProgramWeight32x32 weighs.
func TestRingDescriptorCensus32x32(t *testing.T) {
	got, recycled := ringCensus(t, 32, 32)
	want := exec.Census{Moves: 186368, MovesCount1: 94208, MovesBlocklen1: 78848, Deliveries: 32768, DeliveriesBlocklen1: 16384, Classes: 1}
	if !recycled || got != want {
		t.Fatalf("ring@32x32 census %+v (recycled %v), want %+v recycled", got, recycled, want)
	}
}

//go:build bigshapes

package exec_test

import (
	"testing"

	"torusx/internal/exec"
)

// TestRingDescriptorCensus32x32 pins ring@32x32's descriptors by
// shape, as TestRingDescriptorCensus16 does at 16x16: 5.02 of the 6.23
// MiB core that TestProgramWeight32x32 weighs.
func TestRingDescriptorCensus32x32(t *testing.T) {
	got, recycled := ringCensus(t, 32, 32)
	want := exec.Census{Moves: 296130, MovesCount1: 215367, MovesBlocklen1: 82659, Deliveries: 32768, DeliveriesBlocklen1: 16384}
	if !recycled || got != want {
		t.Fatalf("ring@32x32 census %+v (recycled %v), want %+v recycled", got, recycled, want)
	}
}

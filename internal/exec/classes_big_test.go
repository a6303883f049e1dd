//go:build bigshapes

package exec_test

import "testing"

// TestClassCompileByteIdentity32x32 is TestClassCompileByteIdentity on
// the replay-32x32 benchmark shape.
func TestClassCompileByteIdentity32x32(t *testing.T) {
	classIdentity(t, [][]int{{32, 32}})
}

//go:build !linux

package exec

// adviseHugePages is a no-op off Linux: the block log stays on the
// system's default pages.
func adviseHugePages([]int32) {}

package exec

import (
	"syscall"
	"unsafe"
)

// adviseHugePages asks the kernel to back the whole 2 MiB pages of a
// fresh block log with transparent huge pages. The replay's small
// gathers spread over logs of 22–128 MiB at 32×32, where one 2 MiB TLB
// entry covers what 512 entries of 4 KiB pages would (EXPERIMENTS.md,
// "Replay on the memory system's terms"). It runs before the log's
// first write, so the first touch of memory the heap takes fresh from
// the system faults in huge pages; heap memory that is reused is
// already on 4 KiB pages, which khugepaged may collapse later. The
// kernel honours the advice when THP is set to madvise or always and
// ignores it under never; a kernel built without THP refuses it with
// EINVAL. The replay is the same either way, so the error is dropped.
func adviseHugePages(log []int32) {
	lo, hi := hugePageRange(log)
	if lo == hi {
		return
	}
	b := unsafe.Slice((*byte)(unsafe.Pointer(&log[lo])), 4*(hi-lo))
	_ = syscall.Madvise(b, syscall.MADV_HUGEPAGE)
}

//go:build linux

package progcache

import (
	"os"
	"syscall"
)

// mapFile maps size bytes of f for decoding (MAP_PRIVATE, read-only)
// rather than reading them: the decoder's zero-copy table views then
// point straight at the page cache, and only the pages something reads
// are faulted in. The decoder reads the program's replay core — its CRC
// pass faults the core in — and leaves the cold tail on disk unless
// telemetry or re-encoding later asks for it, so a replay-only process
// neither copies nor maps in the bytes it never reads. The returned
// release unmaps; Load ties it to the decoded program's lifetime via a
// finalizer. Store never truncates in place (files are replaced by
// rename), so a mapped inode stays intact until its last reader drops
// it.
func mapFile(f *os.File, size int64) (data []byte, release func(), err error) {
	if size <= 0 {
		return nil, func() {}, nil
	}
	data, err = syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_PRIVATE)
	if err != nil {
		return nil, nil, err
	}
	return data, func() { _ = syscall.Munmap(data) }, nil
}

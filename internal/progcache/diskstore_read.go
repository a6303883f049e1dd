//go:build !linux

package progcache

import (
	"io"
	"os"
)

// mapFile reads size bytes of f into memory on platforms without the
// mmap fast path; release is a no-op.
func mapFile(f *os.File, size int64) (data []byte, release func(), err error) {
	data = make([]byte, size)
	if _, err = io.ReadFull(f, data); err != nil {
		return nil, nil, err
	}
	return data, func() {}, nil
}

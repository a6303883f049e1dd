package progcache

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"

	"torusx/internal/exec"
	"torusx/internal/topology"
)

// DiskStore is the cache's second tier: encoded programs persisted
// under a directory, one file per cache key, surviving the process.
// A cold process pointed at a warm directory reads and decodes a
// program file instead of recompiling it, which is the whole point —
// the compile cost is paid once per machine, not once per process. A
// program file is its replay core (a few MiB at most at 32x32), so Load
// reads it into the heap: the loaded program owns its bytes, and
// nothing done to the file afterwards reaches it.
//
// Files are named by the fnv64a of the key ("<hex>.txpg") and carry
// the full key inline before the program bytes, so a hash collision
// reads as a miss rather than serving the wrong program. Writes go
// through a temp file (".txpg-*") in the same directory followed by an
// atomic rename: concurrent processes racing on one key each publish a
// complete file and the last rename wins, readers never observe a
// torn write, and a temp file a killed Store leaves behind is never
// loaded. Anything that fails to decode — truncated, corrupted on
// disk, written by a different codec version or a different options
// fingerprint — is deleted on sight and reported as a miss, so a stale
// directory degrades to cold compiles instead of errors.
type DiskStore struct {
	dir string
}

// NewDiskStore opens (creating if needed) the store rooted at dir.
func NewDiskStore(dir string) (*DiskStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("progcache: empty disk store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("progcache: disk store: %w", err)
	}
	return &DiskStore{dir: dir}, nil
}

// Dir returns the store's root directory.
func (d *DiskStore) Dir() string { return d.dir }

func (d *DiskStore) path(key string) string {
	h := fnv.New64a()
	h.Write([]byte(key))
	return filepath.Join(d.dir, fmt.Sprintf("%016x.txpg", h.Sum64()))
}

// headerLen returns the size of the file's key header — u32 key
// length, key bytes, zero padding to an 8-byte boundary — so the
// program bytes start aligned and the decoder's zero-copy table views
// apply. Misaligning them silently costs ~4x on a warm 16x16 load
// (the decoder falls back to element-wise copies), which is exactly
// the regression the cold-start gate exists to catch.
func headerLen(key string) int {
	return (4 + len(key) + 7) &^ 7
}

// Load returns the stored program for key, decoded against f and
// optFP, or (nil, false) on any kind of miss: no file, a colliding
// key, or a file that no longer decodes (which is removed).
func (d *DiskStore) Load(key string, f topology.Fabric, optFP uint64) (*exec.Program, bool) {
	path := d.path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	if len(data) < 4 || headerLen(key) > len(data) {
		os.Remove(path)
		return nil, false
	}
	klen := int(binary.LittleEndian.Uint32(data))
	if klen != len(key) || string(data[4:4+klen]) != key {
		// fnv64a collision with a different key's file: a miss, and the
		// incumbent stays — it is some other key's valid entry.
		return nil, false
	}
	pg, err := exec.DecodeProgram(data[headerLen(key):], f, optFP)
	if err != nil {
		os.Remove(path)
		return nil, false
	}
	return pg, true
}

// Store persists prog under key. The write is atomic (temp file +
// rename) and a failure leaves no partial file behind. The program's
// bytes are written as they are held (exec.WriteProgram), with no
// file-sized buffer; prog itself is not changed.
func (d *DiskStore) Store(key string, prog *exec.Program, optFP uint64) error {
	hdr := make([]byte, headerLen(key))
	binary.LittleEndian.PutUint32(hdr, uint32(len(key)))
	copy(hdr[4:], key)
	tmp, err := os.CreateTemp(d.dir, ".txpg-*")
	if err != nil {
		return fmt.Errorf("progcache: disk store: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err = tmp.Write(hdr); err == nil {
		_, err = exec.WriteProgram(tmp, prog, optFP)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("progcache: disk store: %w", err)
	}
	if err := os.Rename(tmp.Name(), d.path(key)); err != nil {
		return fmt.Errorf("progcache: disk store: %w", err)
	}
	return nil
}

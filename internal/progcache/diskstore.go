package progcache

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"

	"torusx/internal/exec"
	"torusx/internal/topology"
)

// DiskStore is the cache's second tier: encoded programs persisted
// under a directory, one file per cache key, surviving the process.
// A cold process pointed at a warm directory maps and decodes a
// program's replay core instead of recompiling it, which is the whole
// point — the compile cost is paid once per machine, not once per
// process — and the file's cold tail is read only if telemetry asks
// for the program's schedule or the program is written out again.
//
// Files are named by the fnv64a of the key ("<hex>.txpg") and carry
// the full key inline before the program bytes, so a hash collision
// reads as a miss rather than serving the wrong program. Writes go
// through a temp file in the same directory followed by an atomic
// rename: concurrent processes racing on one key each publish a
// complete file and the last rename wins, readers never observe a
// torn write. Anything that fails to decode — truncated by a crash,
// corrupted on disk, written by a different codec version or a
// different options fingerprint — is deleted on sight and reported as
// a miss, so the store self-heals and a stale directory degrades to
// cold compiles instead of errors. A file whose core decodes but whose
// cold tail is later rejected is deleted when the rejection happens
// (see exec.Program.OnTailError).
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
	file, err := os.Open(path)
	if err != nil {
		return nil, false
	}
	defer file.Close()
	fi, err := file.Stat()
	if err != nil {
		return nil, false
	}
	data, release, err := mapFile(file, fi.Size())
	if err != nil {
		return nil, false
	}
	if len(data) < 4 {
		release()
		os.Remove(path)
		return nil, false
	}
	klen := int(binary.LittleEndian.Uint32(data))
	if klen < 0 || headerLen(key) > len(data) {
		release()
		os.Remove(path)
		return nil, false
	}
	if klen != len(key) || string(data[4:4+klen]) != key {
		// fnv64a collision with a different key's file: a miss, and the
		// incumbent stays — it is some other key's valid entry.
		release()
		return nil, false
	}
	pg, err := exec.DecodeProgram(data[headerLen(key):], f, optFP)
	if err != nil {
		release()
		os.Remove(path)
		return nil, false
	}
	// A tail rejected later removes this file — unless a fresh one has
	// replaced it since — so the key recompiles instead of failing every
	// traced run.
	pg.OnTailError(func(*exec.Program, error) {
		if cur, err := os.Stat(path); err == nil && os.SameFile(cur, fi) {
			os.Remove(path)
		}
	})
	// The decoded program's table views alias data for its whole life
	// (mapped pages on Linux); drop the mapping only when the program
	// itself is collected.
	runtime.SetFinalizer(pg, func(*exec.Program) { release() })
	return pg, true
}

// Store persists prog under key. The write is atomic (temp file +
// rename) and a failure leaves no partial file behind. The program's
// core and tail are written as they are held (exec.WriteProgram), with
// no file-sized buffer; prog itself is not changed.
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

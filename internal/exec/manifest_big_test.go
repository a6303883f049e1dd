//go:build bigshapes

package exec_test

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"torusx/internal/algorithm"
	"torusx/internal/exec"
	"torusx/internal/progcache"
	"torusx/internal/topology"
)

// bigManifestPath pins the 32x32 payload cells' program files.
var bigManifestPath = filepath.Join("testdata", "program_v7_sha256_32x32.txt")

// TestProgramByteManifest32x32 pins the encoded file of every payload
// cell at 32x32, the replay-32x32 benchmark shape, where each program's
// plan is far larger than at the 16x16 rows TestProgramByteManifest
// covers. Only the file is hashed: a replay there moves up to 124 MiB.
// Regenerate with -update only for a deliberate format change. Run with:
//
//	go test -tags bigshapes -run TestProgramByteManifest32x32 ./internal/exec
func TestProgramByteManifest32x32(t *testing.T) {
	tor := topology.MustNew(32, 32)
	var got []string
	for _, alg := range coldCells {
		b, err := algorithm.For(alg)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := b.BuildSchedule(tor)
		if err != nil {
			t.Fatal(err)
		}
		pg, err := exec.Compile(sc, exec.Options{})
		if err != nil {
			t.Fatalf("%s: compile: %v", alg, err)
		}
		enc, err := exec.EncodeProgram(pg, progcache.Fingerprint(exec.Options{}))
		if err != nil {
			t.Fatalf("%s: encode: %v", alg, err)
		}
		got = append(got, fmt.Sprintf("%s@%s %x bytes=%d", alg, tor.Fingerprint(), sha256.Sum256(enc), len(enc)))
	}
	if *updateGolden {
		if err := os.WriteFile(bigManifestPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(bigManifestPath)
	if err != nil {
		t.Fatalf("read manifest (regenerate with -update): %v", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d manifest rows, committed manifest has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("manifest row %d differs:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}

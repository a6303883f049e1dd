//go:build bigshapes

package exec_test

import (
	"crypto/sha256"
	"encoding/binary"
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

// TestProgramByteManifest32x32 pins every payload cell at 32x32, the
// replay-32x32 benchmark shape, where each program's plan is far larger
// than at the 16x16 rows TestProgramByteManifest covers: the encoded
// file, its block log's slots, and the SHA-256 of what ReplayInto
// delivers, so a layout change shows as a size and must keep the
// delivery. Regenerate with -update only for a deliberate change. Run
// with:
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
		dst := make([]int32, pg.DeliverySize())
		if err := pg.ReplayInto(pg.NewArena(), dst, exec.Options{}); err != nil {
			t.Fatalf("%s: ReplayInto: %v", alg, err)
		}
		delivery := sha256.New()
		if err := binary.Write(delivery, binary.LittleEndian, dst); err != nil {
			t.Fatal(err)
		}
		got = append(got, fmt.Sprintf("%s@%s %x bytes=%d log=%d delivery=%x", alg, tor.Fingerprint(),
			sha256.Sum256(enc), len(enc), pg.Stats().LogSlots, delivery.Sum(nil)[:16]))
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

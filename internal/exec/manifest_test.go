package exec_test

import (
	"bufio"
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
	"torusx/internal/schedule"
	"torusx/internal/topology"
	"torusx/internal/traffic"
)

// manifestPath is the byte-identity manifest: one line per program the
// registry compiles on the manifest fabrics.
var manifestPath = filepath.Join("testdata", "program_v7_sha256.txt")

// manifestFabrics are the fabrics the manifest covers: square,
// rectangular and cubic tori, the 16x16 benchmark shape and a
// dragonfly.
func manifestFabrics() []topology.Fabric {
	return []topology.Fabric{
		topology.MustNew(8, 8),
		topology.MustNew(16, 16),
		topology.MustNew(12, 8),
		topology.MustNew(4, 4, 4),
		topology.MustNewDragonfly(2, 3),
	}
}

// manifestLine compiles one registry row and renders its manifest line
// (see programLine).
func manifestLine(t *testing.T, name string, f topology.Fabric, alg string, spec string) (string, bool) {
	t.Helper()
	b, err := algorithm.For(alg)
	if err != nil {
		t.Fatal(err)
	}
	opt := exec.Options{}
	var sc *schedule.Schedule
	if spec == "full" {
		if sc, err = b.BuildSchedule(f); err != nil {
			return "", false // shape precondition, e.g. logtime on 12x8
		}
	} else {
		m, err := traffic.ParseSpec(spec, f.Nodes())
		if err != nil {
			t.Fatal(err)
		}
		if sc, err = algorithm.SparseSchedule(b, f, m); err != nil {
			return "", false
		}
		opt.Traffic = m.Blocks()
	}
	return programLine(t, name, sc, opt), true
}

// programLine compiles sc under opt and renders its manifest line: the
// SHA-256 of its encoded file under the production options fingerprint,
// the SHA-256 of its ReplayInto delivery layout, and its Measure,
// MaxSharing and BytesMoved. The RunArena buffers are checked against
// the ReplayInto layout here, so the one digest pins both entry points.
func programLine(t *testing.T, name string, sc *schedule.Schedule, opt exec.Options) string {
	t.Helper()
	pg, err := exec.Compile(sc, opt)
	if err != nil {
		t.Fatalf("%s: compile: %v", name, err)
	}
	enc, err := exec.EncodeProgram(pg, progcache.Fingerprint(opt))
	if err != nil {
		t.Fatalf("%s: encode: %v", name, err)
	}
	replay := sha256.New()
	if pg.Replayable() {
		dst := make([]int32, pg.DeliverySize())
		if err := pg.ReplayInto(pg.NewArena(), dst, exec.Options{}); err != nil {
			t.Fatalf("%s: ReplayInto: %v", name, err)
		}
		res, err := pg.Run(exec.Options{})
		if err != nil {
			t.Fatalf("%s: Run: %v", name, err)
		}
		sameIDs(t, name+"/RunArena", dst, flatIDs(res.Buffers))
		var w [4]byte
		for _, id := range dst {
			binary.LittleEndian.PutUint32(w[:], uint32(id))
			replay.Write(w[:])
		}
	}
	m := pg.Measure()
	return fmt.Sprintf("%s %x %x steps=%d blocks=%d hops=%d rearranged=%d sharing=%d moved=%d",
		name, sha256.Sum256(enc), replay.Sum(nil)[:16], m.Steps, m.Blocks, m.Hops, m.RearrangedBlocks,
		pg.MaxSharing(), pg.BytesMoved())
}

// manifestLines lists every manifest row in a fixed order: fabrics as
// manifestFabrics lists them, algorithms by name, the full matrix and
// then the canned sparse matrices of the sparse-capable algorithms;
// then the hand-built planner rows (stampPlannerRows, interleaveRow and
// rho-ring@8), which pin last-hop self copies, straddling stamps,
// partial forwards and empty nodes.
func manifestLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	for _, f := range manifestFabrics() {
		for _, alg := range algorithm.Supporting(f) {
			specs := []string{"full"}
			if algorithm.SparseCapable(alg) {
				specs = append(specs, traffic.CannedSpecs()...)
			}
			for _, spec := range specs {
				name := alg + "@" + f.Fingerprint() + "+" + spec
				if line, ok := manifestLine(t, name, f, alg, spec); ok {
					lines = append(lines, line)
				}
			}
		}
	}
	hand := append(stampPlannerRows(t), interleaveRow(), wallRow{name: "rho-ring@8", sc: rhoRingSchedule(t)})
	for _, r := range hand {
		lines = append(lines, programLine(t, r.name, r.sc, exec.Options{Traffic: r.traffic}))
	}
	return lines
}

// TestProgramByteManifest pins every program the registry compiles on
// the manifest fabrics, under the full matrix and the canned sparse
// ones: the encoded file bytes, the delivery every replay entry point
// produces, and the cost measure must all match the committed
// manifest. A diff means Compile, the codec or the replay changed what
// a program is; regenerate with -update only for a deliberate format
// change (and bump CodecVersion with it).
func TestProgramByteManifest(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles every registry program at 16x16")
	}
	got := manifestLines(t)
	if *updateGolden {
		if err := os.WriteFile(manifestPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	file, err := os.Open(manifestPath)
	if err != nil {
		t.Fatalf("read manifest (regenerate with -update): %v", err)
	}
	defer file.Close()
	var want []string
	sc := bufio.NewScanner(file)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d manifest rows, committed manifest has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("manifest row %d differs:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}

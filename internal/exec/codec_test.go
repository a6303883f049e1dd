package exec_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"torusx/internal/algorithm"
	"torusx/internal/costmodel"
	"torusx/internal/exec"
	"torusx/internal/schedule"
	"torusx/internal/telemetry"
	"torusx/internal/topology"
)

var updateGolden = flag.Bool("update", false, "rewrite codec golden files")

// codecCell is one (algorithm, fabric) pair the codec tests cover.
type codecCell struct {
	name string
	alg  string
	fab  topology.Fabric
}

// codecCells are the replay-heavy direct exchange and the proposed
// algorithm on the differential shapes, plus a dragonfly exchange —
// every flag combination the format has once the differential wall
// adds its measure-only and sparse rows.
func codecCells() []codecCell {
	var cells []codecCell
	for _, alg := range []string{"direct", "proposed-sim"} {
		for _, dims := range differentialShapes {
			cells = append(cells, codecCell{shapeName(alg, dims), alg, topology.MustNew(dims...)})
		}
	}
	return append(cells, codecCell{"dimexchange/d4x4", "dimexchange", topology.MustNewDragonfly(4, 4)})
}

// codecRows are the codec cells plus one row for each variable-length
// part of the file the cells leave uncovered: non-torus multi-leg
// routes (the dragonfly direct exchange's two- and three-leg routes;
// dimexchange sends only single hops), a sparse traffic-id table and an
// empty phase (logtime on 8x1, whose size-1 dimension has no rounds).
func codecRows(t *testing.T) []wallRow {
	t.Helper()
	var rows []wallRow
	for _, c := range codecCells() {
		row, ok := registryRow(t, c.name, c.alg, c.fab, "")
		if !ok {
			t.Fatalf("%s: builder rejected the shape", c.name)
		}
		rows = append(rows, row)
	}
	for _, c := range []struct {
		name, alg, gen string
		fab            topology.Fabric
	}{
		{"direct/d2x3", "direct", "", topology.MustNewDragonfly(2, 3)},
		{"factored/8x8+uniform", "factored", "uniform:p=0.25,seed=1", topology.MustNew(8, 8)},
		{"logtime/8x1", "logtime", "", topology.MustNew(8, 1)},
	} {
		row, ok := registryRow(t, c.name, c.alg, c.fab, c.gen)
		if !ok {
			t.Fatalf("%s: builder rejected the shape", c.name)
		}
		rows = append(rows, row)
	}
	return rows
}

// TestProgramCodecRoundTripStable: encode→decode→encode must be
// byte-identical for every program shape, and the decoded program's
// observable surface (measure, sharing, size class, schedule) must
// match the original.
func TestProgramCodecRoundTripStable(t *testing.T) {
	for _, row := range codecRows(t) {
		sc := row.sc
		t.Run(row.name, func(t *testing.T) {
			pg, err := exec.Compile(sc, exec.Options{Traffic: row.traffic})
			if err != nil {
				t.Fatal(err)
			}
			const fp = 0xfeedface
			enc, err := exec.EncodeProgram(pg, fp)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := exec.DecodeProgram(enc, sc.Fabric, fp)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if dec.Measure() != pg.Measure() {
				t.Errorf("Measure %+v, want %+v", dec.Measure(), pg.Measure())
			}
			if dec.MaxSharing() != pg.MaxSharing() {
				t.Errorf("MaxSharing %d, want %d", dec.MaxSharing(), pg.MaxSharing())
			}
			if dec.Replayable() != pg.Replayable() {
				t.Errorf("Replayable %v, want %v", dec.Replayable(), pg.Replayable())
			}
			re, err := exec.EncodeProgram(dec, fp)
			if err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			if !bytes.Equal(enc, re) {
				t.Fatalf("re-encoded bytes differ: %d vs %d bytes", len(enc), len(re))
			}
			// The header carries the phase count, and the digest checks
			// a re-plan of the very schedule compiled.
			if dec.NumPhases() != len(sc.Phases) {
				t.Fatalf("%d phases, want %d", dec.NumPhases(), len(sc.Phases))
			}
			dec.SetSource(func() (*schedule.Schedule, error) { return sc, nil })
			if got, err := dec.Schedule(); err != nil || got != sc {
				t.Fatalf("decoded Schedule() = %p, %v; want the source's schedule %p", got, err, sc)
			}
		})
	}
}

// resealProgram returns a copy of a program file with its checksum,
// the file's last four bytes, recomputed, so an edit reaches the
// structural checks behind it.
func resealProgram(b []byte) []byte {
	b = append([]byte(nil), b...)
	if len(b) >= 8 {
		binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[:len(b)-4]))
	}
	return b
}

// programFPEnd returns the offset of the first count after a program
// file's fabric fingerprint (n, then numSteps, numPhases, ...).
func programFPEnd(b []byte) int { return 32 + int(binary.LittleEndian.Uint32(b[28:])+3)&^3 }

// TestProgramDecodeRejects: the decoder must reject — with an error,
// never a panic — every truncation prefix, flipped bytes, trailing
// bytes past the framed file (such as an older build's cold tail),
// wrong magic/version, unknown flags, fabric or options fingerprints
// that do not match the decode context, files of any other codec
// version, and correctly sealed files whose replay plan breaks one of
// the decoder's proofs. The schedule digest is not a replay input: a
// resealed file with a flipped digest decodes and replays, and only
// Schedule() reports the mismatch.
func TestProgramDecodeRejects(t *testing.T) {
	tor := topology.MustNew(4, 4)
	b, err := algorithm.For("direct")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := b.BuildSchedule(tor)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := exec.Compile(sc, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := exec.EncodeProgram(pg, 1)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("truncations", func(t *testing.T) {
		for i := 0; i < len(enc); i++ {
			if _, err := exec.DecodeProgram(enc[:i], tor, 1); err == nil {
				t.Fatalf("truncation to %d bytes decoded", i)
			}
		}
	})
	t.Run("corruption", func(t *testing.T) {
		// Every byte flipped in turn would be slow; stride through the
		// file. CRC32 catches all single-byte flips by construction.
		for i := 0; i < len(enc); i += 7 {
			bad := append([]byte(nil), enc...)
			bad[i] ^= 0x5a
			if _, err := exec.DecodeProgram(bad, tor, 1); err == nil {
				t.Fatalf("flip at %d decoded", i)
			}
		}
	})
	ref, err := pg.Run(exec.Options{Serial: true})
	if err != nil {
		t.Fatal(err)
	}
	// A file is its replay core: bytes past the length its header
	// frames — a cold tail an older layout appended, or any trailing
	// garbage — fail decode, resealed or not.
	t.Run("tail-corruption", func(t *testing.T) {
		for _, extra := range []int{4, 97, len(enc)} {
			bad := append(append([]byte(nil), enc...), make([]byte, extra)...)
			for _, in := range [][]byte{bad, resealProgram(bad)} {
				if _, err := exec.DecodeProgram(in, tor, 1); err == nil || !strings.Contains(err.Error(), "frames") {
					t.Fatalf("%d trailing bytes: err = %v, want a framing error", extra, err)
				}
			}
		}
	})
	// A flipped digest under a valid checksum decodes and replays
	// exactly as before; re-planning from the true source then fails
	// the digest check.
	t.Run("tail-resealed", func(t *testing.T) {
		for i := 16; i < 24; i++ {
			bad := append([]byte(nil), enc...)
			bad[i] ^= 0x5a
			dec, err := exec.DecodeProgram(resealProgram(bad), tor, 1)
			if err != nil {
				t.Fatalf("digest flip at %d rejected at decode: %v", i, err)
			}
			got, err := dec.Run(exec.Options{Serial: true})
			if err != nil {
				t.Fatalf("digest flip at %d: replay: %v", i, err)
			}
			sameBuffers(t, ref.Buffers, got.Buffers)
			dec.SetSource(func() (*schedule.Schedule, error) { return b.BuildSchedule(tor) })
			if sc, err := dec.Schedule(); sc != nil || err == nil || !strings.Contains(err.Error(), "digest") {
				t.Fatalf("digest flip at %d: Schedule() = %v, %v; want a digest error", i, sc, err)
			}
		}
	})
	t.Run("fingerprints", func(t *testing.T) {
		if _, err := exec.DecodeProgram(enc, tor, 2); err == nil {
			t.Fatal("wrong options fingerprint accepted")
		}
		if _, err := exec.DecodeProgram(enc, topology.MustNew(8, 8), 1); err == nil {
			t.Fatal("wrong fabric accepted")
		}
		if _, err := exec.DecodeProgram(enc, nil, 1); err == nil {
			t.Fatal("nil fabric accepted")
		}
	})
	reseal := func(mut func([]byte)) []byte {
		bad := append([]byte(nil), enc...)
		mut(bad)
		return resealProgram(bad)
	}
	t.Run("header", func(t *testing.T) {
		if _, err := exec.DecodeProgram(reseal(func(b []byte) { b[0] = 'X' }), tor, 1); err == nil {
			t.Fatal("bad magic accepted")
		}
		if _, err := exec.DecodeProgram(reseal(func(b []byte) { b[4] = 99 }), tor, 1); err == nil {
			t.Fatal("future version accepted")
		}
		if _, err := exec.DecodeProgram(reseal(func(b []byte) { b[6] |= 0x80 }), tor, 1); err == nil {
			t.Fatal("unknown flag accepted")
		}
		// Bit 2 marked a program that forwards within a step, which
		// Compile now rejects: such a file is a miss, not a misread.
		if _, err := exec.DecodeProgram(reseal(func(b []byte) { b[6] |= 1 << 2 }), tor, 1); err == nil || !strings.Contains(err.Error(), "unknown flags 0x4") {
			t.Fatalf("retired flag bit 2: err = %v, want unknown flags", err)
		}
		// Relative order (flag bit 3) is a full-traffic torus layout: on
		// a sparse-traffic file or a dragonfly file it is rejected.
		for _, c := range []struct {
			name, alg, spec string
			fab             topology.Fabric
		}{
			{"sparse", "proposed-sim", "uniform:p=0.25,seed=1", tor},
			{"dragonfly", "direct", "", topology.MustNewDragonfly(2, 3)},
		} {
			row, ok := registryRow(t, c.name, c.alg, c.fab, c.spec)
			if !ok {
				t.Fatalf("%s: builder rejected the shape", c.name)
			}
			pg, err := exec.Compile(row.sc, exec.Options{Traffic: row.traffic})
			if err != nil {
				t.Fatal(err)
			}
			file, err := exec.EncodeProgram(pg, 1)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := exec.DecodeProgram(file, c.fab, 1); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			file[6] |= 1 << 3
			if _, err := exec.DecodeProgram(resealProgram(file), c.fab, 1); err == nil || !strings.Contains(err.Error(), "relative order") {
				t.Fatalf("%s with the relative flag: err = %v, want a relative-order error", c.name, err)
			}
		}
		// A 4x4 program relabelled as a 3x3 one (the fingerprints have
		// the same length) names the fabric it is decoded on, but its
		// node ids run past that fabric's.
		small := topology.MustNew(3, 3)
		relabelled := reseal(func(b []byte) { copy(b[32:], small.Fingerprint()) })
		if _, err := exec.DecodeProgram(relabelled, small, 1); err == nil || !strings.Contains(err.Error(), "node count") {
			t.Fatalf("relabelled fabric: err = %v, want a node count error", err)
		}
	})
	// A file an older build wrote (v1: span tables only; v2: spans plus
	// the descriptor plan; v3: the descriptor plan with a full delivery
	// tail; v4: last-hop windows and residual tail segments; v5: one
	// checksum over hot and cold sections; v6: a replay core and a cold
	// tail holding the schedule) must be a clean, descriptive error,
	// which the disk tier turns into a miss and a delete.
	t.Run("stale-versions", func(t *testing.T) {
		for _, v := range []uint16{1, 2, 3, 4, 5, 6} {
			stale := append([]byte(nil), enc...)
			binary.LittleEndian.PutUint16(stale[4:], v)
			_, err := exec.DecodeProgram(resealProgram(stale), tor, 1)
			if err == nil || !strings.Contains(err.Error(), "version") {
				t.Fatalf("v%d file: err = %v, want a version error", v, err)
			}
		}
	})
	// Files sealed by the encoder itself, so only the decoder's plan
	// proofs stand between them and a replay. Direct has no log moves:
	// its whole replay is the delivery pass, and each node's delivery
	// descriptors must expand to exactly its count.
	t.Run("delivery-tiling", func(t *testing.T) {
		for _, tc := range []struct {
			name string
			edit func(deliverOff []int32)
		}{
			// Node 0 loses its last descriptor to node 1.
			{"short-and-long", func(off []int32) { off[1]-- }},
			// Node 0 reads node 1's descriptors too; node 1 reads none.
			{"not-monotone", func(off []int32) { off[1] = off[2] + 1 }},
			// Node 0's window ends past the descriptor table.
			{"window-past-end", func(off []int32) { off[1] = off[len(off)-1] + 1 }},
		} {
			bad, err := exec.EncodeWithPlanEdit(pg, 1, func(_ []exec.MoveRec, off, _ []int32, _ []exec.DescRec) { tc.edit(off) })
			if err != nil {
				t.Fatal(err)
			}
			_, err = exec.DecodeProgram(bad, tor, 1)
			if err == nil || !strings.Contains(err.Error(), "delivery descriptor") {
				t.Fatalf("%s: err = %v, want a delivery descriptor error", tc.name, err)
			}
		}
		if _, err := exec.DecodeProgram(enc, tor, 1); err != nil {
			t.Fatalf("unedited file no longer decodes: %v", err)
		}
	})
	// The header's phase count is what Report.Phases shows and what
	// every step header's phase index must fall below.
	t.Run("cold-section", func(t *testing.T) {
		t.Run("phase-count", func(t *testing.T) {
			bad := reseal(func(b []byte) { binary.LittleEndian.PutUint32(b[programFPEnd(b)+8:], 0) })
			if _, err := exec.DecodeProgram(bad, tor, 1); err == nil || !strings.Contains(err.Error(), "phases") {
				t.Fatalf("err = %v, want a phase count error", err)
			}
		})
	})
	// The proofs the parallel replay's sender shards rest on, on a
	// program with log moves: insert windows clear of the initial
	// contents and of each other's in their step, and every move reading
	// only its sender's region.
	t.Run("log-moves", func(t *testing.T) {
		fb, err := algorithm.For("factored")
		if err != nil {
			t.Fatal(err)
		}
		fsc, err := fb.BuildSchedule(tor)
		if err != nil {
			t.Fatal(err)
		}
		fpg, err := exec.Compile(fsc, exec.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name, want string
			edit       func(moves []exec.MoveRec, descBase []int32)
		}{
			{"insert-over-initial-contents", "initial contents", func(moves []exec.MoveRec, descBase []int32) {
				m := &moves[0]
				for v := range descBase[:len(descBase)-1] {
					if m.InsPos >= descBase[v] && m.InsPos < descBase[v+1] {
						m.InsPos = descBase[v]
						return
					}
				}
			}},
			{"insert-windows-overlap-in-step", "overlapping log move", func(moves []exec.MoveRec, _ []int32) {
				steps := exec.MoveSteps(fpg)
				for j := 1; j < len(moves); j++ {
					if steps[j] == steps[0] && moves[j].Len <= moves[0].Len {
						moves[j].InsPos = moves[0].InsPos
						return
					}
				}
				t.Fatal("no log move of the first one's step fits over its window")
			}},
			{"read-outside-sender", "outside its sender", func(moves []exec.MoveRec, _ []int32) {
				moves[0].Src = (moves[0].Src + 1) % int32(tor.Nodes())
			}},
		} {
			bad, err := exec.EncodeWithPlanEdit(fpg, 1, func(moves []exec.MoveRec, _, descBase []int32, _ []exec.DescRec) {
				if len(moves) < 2 {
					t.Fatalf("factored@%s has %d log moves", tor, len(moves))
				}
				tc.edit(moves, descBase)
			})
			if err != nil {
				t.Fatal(err)
			}
			_, err = exec.DecodeProgram(bad, tor, 1)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%s: err = %v, want a log-move error mentioning %q", tc.name, err, tc.want)
			}
		}
		good, err := exec.EncodeProgram(fpg, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := exec.DecodeProgram(good, tor, 1); err != nil {
			t.Fatalf("unedited file no longer decodes: %v", err)
		}
	})
}

// recycledProgram compiles ring@16x2, a program whose block log lays
// insert windows over dead ones, and checks that it does.
func recycledProgram(t *testing.T) (*exec.Program, topology.Fabric) {
	t.Helper()
	tor := topology.MustNew(16, 2)
	b, err := algorithm.For("ring")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := b.BuildSchedule(tor)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := exec.Compile(sc, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !exec.ReusesWindows(pg) {
		t.Fatalf("ring@%s keeps an append-only block log", tor)
	}
	return pg, tor
}

// regionOf returns the node whose log region, in the descBase prefix,
// holds position pos.
func regionOf(descBase []int32, pos int32) int32 {
	v, _ := slices.BinarySearch(descBase, pos+1)
	return int32(v - 1)
}

// rejectsPlanEdit encodes pg with edit applied to its plan and requires
// the decoder to reject the file with an error mentioning want, and the
// unedited file to decode.
func rejectsPlanEdit(t *testing.T, pg *exec.Program, tor topology.Fabric, want string, edit func(moves []exec.MoveRec, descBase []int32, descs []exec.DescRec) bool) {
	t.Helper()
	edited := false
	bad, err := exec.EncodeWithPlanEdit(pg, 1, func(moves []exec.MoveRec, _, descBase []int32, descs []exec.DescRec) {
		edited = edit(moves, descBase, descs)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !edited {
		t.Fatal("the program has no log move to edit")
	}
	if _, err := exec.DecodeProgram(bad, tor, 1); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want a log-move error mentioning %q", err, want)
	}
	good, err := exec.EncodeProgram(pg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.DecodeProgram(good, tor, 1); err != nil {
		t.Fatalf("unedited file no longer decodes: %v", err)
	}
}

// TestProgramDecodeRejectsSameStepRead: on a program whose windows
// reuse dead ones, an insert window moved over slots a log move of the
// same step reads — a write the parallel replay's one barrier per step
// would race with — fails decode.
func TestProgramDecodeRejectsSameStepRead(t *testing.T) {
	pg, tor := recycledProgram(t)
	steps := exec.MoveSteps(pg)
	initial := int32(tor.Nodes()) // every node's blocks under the full matrix
	rejectsPlanEdit(t, pg, tor, "inserts in the same step", func(moves []exec.MoveRec, descBase []int32, descs []exec.DescRec) bool {
		for i, m := range moves {
			x := m.Src
			for _, d := range descs[m.DescOff : m.DescOff+m.DescLen] {
				if d.Start < descBase[x]+initial {
					continue
				}
				for j, w := range moves {
					if steps[j] == steps[i] && regionOf(descBase, w.InsPos) == x && d.Start+w.Len <= descBase[x+1] {
						moves[j].InsPos = d.Start
						return true
					}
				}
			}
		}
		return false
	})
}

// TestProgramDecodeRejectsInitialOverwrite: on a program whose windows
// reuse dead ones, an insert window moved over its node's initial
// contents, which no layout may reuse, fails decode.
func TestProgramDecodeRejectsInitialOverwrite(t *testing.T) {
	pg, tor := recycledProgram(t)
	rejectsPlanEdit(t, pg, tor, "initial contents", func(moves []exec.MoveRec, descBase []int32, _ []exec.DescRec) bool {
		m := &moves[len(moves)-1]
		m.InsPos = descBase[regionOf(descBase, m.InsPos)]
		return true
	})
}

// TestProgramCodecGolden pins the v7 byte format: the committed
// golden files must decode, and re-encoding the programs must
// reproduce them bit-for-bit. A diff here means the format changed —
// bump CodecVersion rather than silently breaking every cached
// program on disk. Regenerate with -update after a deliberate version
// bump. Three programs are pinned: the direct exchange, the factored
// algorithm whose multi-phase program exercises the descriptor
// section (log moves, delivery descriptors over several regions) most
// heavily, and ring@16x2, whose recycled block log lays windows over
// dead ones. The factored and ring files lay their initial blocks out
// in relative order (classes.go); TestProgramMatrixOrderGolden keeps
// factored's matrix-order file as the format wrote it before.
func TestProgramCodecGolden(t *testing.T) {
	for _, c := range []struct {
		alg  string
		dims []int
	}{{"direct", []int{4, 4}}, {"factored", []int{4, 4}}, {"ring", []int{16, 2}}} {
		alg, tor := c.alg, topology.MustNew(c.dims...)
		name := fmt.Sprintf("%s%dx%d", alg, c.dims[0], c.dims[1])
		t.Run(alg, func(t *testing.T) {
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
				t.Fatal(err)
			}
			if reuses := exec.ReusesWindows(pg); reuses != (alg == "ring") {
				t.Fatalf("%s reuses insert windows: %v", name, reuses)
			}
			enc, err := exec.EncodeProgram(pg, 0)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "program_v7_"+name+".bin")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, enc, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (regenerate with -update): %v", err)
			}
			if !bytes.Equal(enc, want) {
				t.Fatalf("encoding diverges from committed v7 golden (%d vs %d bytes); if the format changed deliberately, bump CodecVersion and -update", len(enc), len(want))
			}
			dec, err := exec.DecodeProgram(want, tor, 0)
			if err != nil {
				t.Fatalf("golden decode: %v", err)
			}
			if dec.Measure() != pg.Measure() {
				t.Fatalf("golden Measure %+v, want %+v", dec.Measure(), pg.Measure())
			}
			// Decode-and-replay: the program reconstituted from the
			// committed bytes must deliver the same matrix as the fresh
			// compile, through the descriptor path and straight into a
			// caller buffer.
			ref, err := pg.Run(exec.Options{Serial: true})
			if err != nil {
				t.Fatal(err)
			}
			got, err := dec.Run(exec.Options{Serial: true})
			if err != nil {
				t.Fatalf("golden replay: %v", err)
			}
			sameBuffers(t, ref.Buffers, got.Buffers)
			refDst := make([]int32, pg.DeliverySize())
			if err := pg.ReplayInto(pg.NewArena(), refDst, exec.Options{Serial: true}); err != nil {
				t.Fatal(err)
			}
			dst := make([]int32, dec.DeliverySize())
			if err := dec.ReplayInto(dec.NewArena(), dst, exec.Options{Serial: true}); err != nil {
				t.Fatalf("golden ReplayInto: %v", err)
			}
			for i := range refDst {
				if dst[i] != refDst[i] {
					t.Fatalf("golden ReplayInto diverges at flat position %d: %d vs %d", i, dst[i], refDst[i])
				}
			}
		})
	}
}

// TestProgramMatrixOrderGolden: a file written before relative order
// (classes.go) — factored@4x4 with every node's initial blocks in
// matrix order and no relative flag, as the parent build wrote it —
// still decodes and replays, serial and parallel, delivering exactly
// what a fresh compile, now in relative order, delivers. Program files
// already on disk stay valid.
func TestProgramMatrixOrderGolden(t *testing.T) {
	tor := topology.MustNew(4, 4)
	data, err := os.ReadFile(filepath.Join("testdata", "program_v7_factored4x4_matrix.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if data[6] != 0x03 {
		t.Fatalf("golden flags %#x, want replay and full traffic only", data[6])
	}
	dec, err := exec.DecodeProgram(data, tor, 0)
	if err != nil {
		t.Fatalf("matrix-order golden decode: %v", err)
	}
	b, err := algorithm.For("factored")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := b.BuildSchedule(tor)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := exec.Compile(sc, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if enc, _ := exec.EncodeProgram(pg, 0); bytes.Equal(enc, data) {
		t.Fatal("a fresh compile still writes the matrix-order file")
	}
	if dec.Measure() != pg.Measure() || dec.BytesMoved() != pg.BytesMoved() || dec.Stats().LogSlots != pg.Stats().LogSlots {
		t.Fatalf("golden measure %+v moved %d log %d, compile %+v moved %d log %d", dec.Measure(), dec.BytesMoved(),
			dec.Stats().LogSlots, pg.Measure(), pg.BytesMoved(), pg.Stats().LogSlots)
	}
	ref, err := pg.Run(exec.Options{Serial: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range []exec.Options{{Serial: true}, {Workers: 2}} {
		got, err := dec.Run(opt)
		if err != nil {
			t.Fatalf("matrix-order golden replay %+v: %v", opt, err)
		}
		sameBuffers(t, ref.Buffers, got.Buffers)
	}
	dst := make([]int32, dec.DeliverySize())
	if err := dec.ReplayInto(dec.NewArena(), dst, exec.Options{Serial: true}); err != nil {
		t.Fatalf("matrix-order golden ReplayInto: %v", err)
	}
	for v := 0; v < tor.Nodes(); v++ {
		for i, bl := range ref.Buffers[v].View() {
			if got := dst[dec.DeliveryOffset(v)+i]; got != bl.ID(tor.Nodes()) {
				t.Fatalf("node %d block %d: ReplayInto %d, want %d", v, i, got, bl.ID(tor.Nodes()))
			}
		}
	}
}

// TestEncodeProgramAllocBudget pins EncodeProgram to one buffer of the
// encoded length: the bytes it allocates may exceed the file size only
// by the allocator's rounding of that one buffer.
func TestEncodeProgramAllocBudget(t *testing.T) {
	const slack = 16 << 10
	tor := topology.MustNew(16, 16)
	for _, alg := range []string{"direct", "factored"} {
		t.Run(alg, func(t *testing.T) {
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
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			enc, err := exec.EncodeProgram(pg, 0)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > uint64(len(enc)+slack) {
				t.Fatalf("%s@16x16: encoding %d bytes allocated %d bytes, budget %d", alg, len(enc), got, len(enc)+slack)
			}
		})
	}
}

// TestDecodedTailConcurrentParallel: the first Schedule() of a decoded
// program re-plans from its source while other goroutines replay it,
// weigh it, trace it and encode it; under -race every access must be
// ordered, the source must run exactly once, and every goroutine must
// see the same delivery, the same trace and the same bytes.
func TestDecodedTailConcurrentParallel(t *testing.T) {
	tor := topology.MustNew(8, 8)
	pg := decodedProgram(t, "factored", tor)
	b, err := algorithm.For("factored")
	if err != nil {
		t.Fatal(err)
	}
	var plans atomic.Int32
	pg.SetSource(func() (*schedule.Schedule, error) {
		plans.Add(1)
		return b.BuildSchedule(tor)
	})
	ref, err := pg.Run(exec.Options{Serial: true})
	if err != nil {
		t.Fatal(err)
	}
	refEnc, err := exec.EncodeProgram(pg, 0)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	traces := make([]int, goroutines)
	scheds := make([]*schedule.Schedule, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			opt := exec.Options{Workers: 2}
			var sink telemetry.MemorySink
			if g%2 == 0 {
				opt.Telemetry = telemetry.New(&sink, costmodel.T3D(64))
			} else if enc, err := exec.EncodeProgram(pg, 0); err != nil || !bytes.Equal(enc, refEnc) {
				t.Errorf("goroutine %d: encoding differs (%v)", g, err)
			}
			_ = pg.SizeBytes()
			sc, err := pg.Schedule()
			if err != nil {
				t.Error(err)
				return
			}
			scheds[g] = sc
			res, err := pg.RunArena(pg.NewArena(), opt)
			if err != nil {
				t.Error(err)
				return
			}
			for v := range ref.Buffers {
				if !slices.Equal(res.Buffers[v].View(), ref.Buffers[v].View()) {
					t.Errorf("goroutine %d: node %d delivery differs", g, v)
					return
				}
			}
			traces[g] = sink.Len()
		}(g)
	}
	wg.Wait()
	if n := plans.Load(); n != 1 {
		t.Fatalf("source ran %d times, want once", n)
	}
	for g := 1; g < goroutines; g++ {
		if scheds[g] != scheds[0] {
			t.Fatalf("goroutine %d saw a different schedule", g)
		}
	}
	for g := 2; g < goroutines; g += 2 {
		if traces[g] == 0 || traces[g] != traces[0] {
			t.Fatalf("goroutine %d traced %d events, goroutine 0 %d", g, traces[g], traces[0])
		}
	}
}

// TestScheduleSource: Schedule() re-plans only from a recorded source
// that rebuilds the compiled schedule. A program with no source returns
// nil and an error; one whose source rebuilds another schedule (here
// ring's in place of direct's) reports a digest mismatch, from
// Schedule() and from a traced run, while its untraced replays still
// verify; and exec.Run records the schedule it was given.
func TestScheduleSource(t *testing.T) {
	tor := topology.MustNew(4, 4)
	build := func(alg string) *schedule.Schedule {
		b, err := algorithm.For(alg)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := b.BuildSchedule(tor)
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	direct := build("direct")
	pg, err := exec.Compile(direct, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sc, err := pg.Schedule(); sc != nil || err == nil || !strings.Contains(err.Error(), "no schedule source") {
		t.Fatalf("no source: Schedule() = %v, %v; want nil and a no-source error", sc, err)
	}

	pg, err = exec.Compile(direct, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pg.SetSource(func() (*schedule.Schedule, error) { return build("ring"), nil })
	sc, err := pg.Schedule()
	if sc != nil || err == nil || !strings.Contains(err.Error(), "digest") {
		t.Fatalf("wrong source: Schedule() = %v, %v; want a digest mismatch", sc, err)
	}
	traced := exec.Options{Telemetry: telemetry.New(&telemetry.MemorySink{}, costmodel.T3D(64))}
	if _, terr := pg.RunArena(pg.NewArena(), traced); terr == nil || !errors.Is(terr, err) {
		t.Fatalf("traced run: err = %v, want %v", terr, err)
	}
	want, err := oracleRun(direct, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := pg.AcquireArena()
	for _, opt := range []exec.Options{{Serial: true}, {Workers: 2}} {
		res, err := pg.RunArena(a, opt)
		if err != nil {
			t.Fatalf("untraced replay after a digest mismatch: %v", err)
		}
		sameBuffers(t, want.Buffers, res.Buffers)
	}
	dst := make([]int32, pg.DeliverySize())
	if err := pg.ReplayInto(a, dst, exec.Options{}); err != nil {
		t.Fatalf("ReplayInto after a digest mismatch: %v", err)
	}
	sameIDs(t, "ReplayInto", flatIDs(want.Buffers), dst)
	pg.ReleaseArena(a)

	res, err := exec.Run(direct, traced)
	if err != nil || res.Schedule != direct {
		t.Fatalf("traced exec.Run: %v, schedule %p, want %p", err, res.Schedule, direct)
	}
}

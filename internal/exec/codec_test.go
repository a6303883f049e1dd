package exec_test

import (
	"bytes"
	"encoding/binary"
	"flag"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"torusx/internal/algorithm"
	"torusx/internal/exec"
	"torusx/internal/schedule"
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

// codecPrograms builds every codec cell's schedule, keyed by name.
func codecPrograms(t *testing.T) map[string]*schedule.Schedule {
	t.Helper()
	out := map[string]*schedule.Schedule{}
	for _, c := range codecCells() {
		b, err := algorithm.For(c.alg)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := b.BuildSchedule(c.fab)
		if err != nil {
			t.Fatalf("builder %s: %v", c.name, err)
		}
		out[c.name] = sc
	}
	return out
}

// TestProgramCodecRoundTripStable: encode→decode→encode must be
// byte-identical for every program shape, and the decoded program's
// observable surface (measure, sharing, size class, schedule) must
// match the original.
func TestProgramCodecRoundTripStable(t *testing.T) {
	for name, sc := range codecPrograms(t) {
		t.Run(name, func(t *testing.T) {
			pg, err := exec.Compile(sc, exec.Options{})
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
			// The lazily materialized schedule must round-trip the
			// structural facts the original carried.
			got := dec.Schedule()
			if got == nil {
				t.Fatalf("decoded schedule: %v", dec.SchedErr())
			}
			if len(got.Phases) != len(sc.Phases) {
				t.Fatalf("%d phases, want %d", len(got.Phases), len(sc.Phases))
			}
			for pi := range sc.Phases {
				a, b := &got.Phases[pi], &sc.Phases[pi]
				if a.Name != b.Name || a.Rearrange != b.Rearrange || len(a.Steps) != len(b.Steps) {
					t.Fatalf("phase %d: %q/%d/%d steps, want %q/%d/%d", pi,
						a.Name, a.Rearrange, len(a.Steps), b.Name, b.Rearrange, len(b.Steps))
				}
			}
		})
	}
}

// TestProgramDecodeRejects: the decoder must reject — with an error,
// never a panic — every truncation prefix, flipped content bytes,
// wrong magic/version, unknown flags, fabric or options fingerprints
// that do not match the decode context, files of any other codec
// version, and correctly sealed files whose delivery plan does not
// tile the delivery layout.
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
	t.Run("header", func(t *testing.T) {
		reseal := func(mut func([]byte)) []byte {
			bad := append([]byte(nil), enc...)
			mut(bad)
			binary.LittleEndian.PutUint32(bad[len(bad)-4:], crc32.ChecksumIEEE(bad[:len(bad)-4]))
			return bad
		}
		if _, err := exec.DecodeProgram(reseal(func(b []byte) { b[0] = 'X' }), tor, 1); err == nil {
			t.Fatal("bad magic accepted")
		}
		if _, err := exec.DecodeProgram(reseal(func(b []byte) { b[4] = 99 }), tor, 1); err == nil {
			t.Fatal("future version accepted")
		}
		if _, err := exec.DecodeProgram(reseal(func(b []byte) { b[6] |= 0x80 }), tor, 1); err == nil {
			t.Fatal("unknown flag accepted")
		}
	})
	// A file an older build wrote (v1: span tables only; v2: spans plus
	// the descriptor plan; v3: the descriptor plan with a full delivery
	// tail) must be a clean, descriptive error, which the disk tier
	// turns into a miss and a delete.
	t.Run("stale-versions", func(t *testing.T) {
		for _, v := range []uint16{1, 2, 3} {
			stale := append([]byte(nil), enc...)
			binary.LittleEndian.PutUint16(stale[4:], v)
			binary.LittleEndian.PutUint32(stale[len(stale)-4:], crc32.ChecksumIEEE(stale[:len(stale)-4]))
			_, err := exec.DecodeProgram(stale, tor, 1)
			if err == nil || !strings.Contains(err.Error(), "version") {
				t.Fatalf("v%d file: err = %v, want a version error", v, err)
			}
		}
	})
	// Files sealed by the encoder itself, so only the delivery-tiling
	// proof stands between them and a replay. Direct delivers every
	// block through a last-hop window except each node's own block,
	// which never moves and is a residual segment.
	t.Run("delivery-tiling", func(t *testing.T) {
		for _, tc := range []struct {
			name, want string
			edit       func(finalPos, residPos []int32, residNode []int)
		}{
			{"residual-overlaps-last-hop", "overlaps", func(finalPos, residPos []int32, residNode []int) {
				v := residNode[0]
				lo, hi := int32(pg.DeliveryOffset(v)), int32(pg.DeliveryOffset(v+1))
				for _, fp := range finalPos {
					if fp >= lo && fp < hi && fp-lo != residPos[0] {
						residPos[0] = fp - lo
						return
					}
				}
				t.Fatalf("node %d has no last-hop window", v)
			}},
			{"slot-uncovered", "uncovered", func(finalPos, _ []int32, _ []int) {
				for i, fp := range finalPos {
					if fp >= 0 {
						finalPos[i] = -1
						return
					}
				}
				t.Fatal("no last-hop window")
			}},
		} {
			bad, err := exec.EncodeWithDeliveryEdit(pg, 1, tc.edit)
			if err != nil {
				t.Fatal(err)
			}
			_, err = exec.DecodeProgram(bad, tor, 1)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%s: err = %v, want a tiling error mentioning %q", tc.name, err, tc.want)
			}
		}
		if _, err := exec.DecodeProgram(enc, tor, 1); err != nil {
			t.Fatalf("unedited file no longer decodes: %v", err)
		}
	})
}

// TestProgramCodecGolden pins the v4 byte format: the committed
// golden files must decode, and re-encoding the 4x4 programs must
// reproduce them bit-for-bit. A diff here means the format changed —
// bump CodecVersion rather than silently breaking every cached
// program on disk. Regenerate with -update after a deliberate version
// bump. Two shapes are pinned: the direct exchange, and the factored
// algorithm whose multi-phase program exercises the descriptor
// section (strided gathers, residual tail segments) most heavily.
func TestProgramCodecGolden(t *testing.T) {
	tor := topology.MustNew(4, 4)
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
			enc, err := exec.EncodeProgram(pg, 0)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "program_v4_"+alg+"4x4.bin")
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
				t.Fatalf("encoding diverges from committed v4 golden (%d vs %d bytes); if the format changed deliberately, bump CodecVersion and -update", len(enc), len(want))
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

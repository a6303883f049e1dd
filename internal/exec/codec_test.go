package exec_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

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
// part of the cold section the cells leave uncovered: a parallelErr
// message (forward-mixed), non-torus multi-leg routes (the dragonfly
// direct exchange's two- and three-leg routes; dimexchange sends only
// single hops), a sparse traffic-id table and an empty phase (logtime
// on 8x1, whose size-1 dimension has no rounds).
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
	rows = append(rows, forwardMixedRow())
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

// resealProgram returns a copy of a v6 program file with both of its
// checksums recomputed — the core's, at the end of the core the header
// frames, and the tail's, in the file's last four bytes — so an edit
// reaches the structural checks behind them. A file whose header does
// not frame a core gets only its last four bytes resealed.
func resealProgram(b []byte) []byte {
	b = append([]byte(nil), b...)
	if len(b) < 8 {
		return b
	}
	if len(b) >= 24 {
		if core := int(binary.LittleEndian.Uint32(b[16:])); core >= 28 && core <= len(b)-4 {
			binary.LittleEndian.PutUint32(b[core-4:], crc32.ChecksumIEEE(b[:core-4]))
			binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[core:len(b)-4]))
			return b
		}
	}
	binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[:len(b)-4]))
	return b
}

// programCoreLen returns the length of a v6 program file's replay
// core, as its header records it.
func programCoreLen(b []byte) int { return int(binary.LittleEndian.Uint32(b[16:])) }

// TestProgramDecodeRejects: the decoder must reject — with an error,
// never a panic — every truncation prefix, flipped core bytes, wrong
// magic/version, unknown flags, fabric or options fingerprints that do
// not match the decode context, files of any other codec version, and
// correctly sealed files whose replay plan breaks one of the decoder's
// proofs. The cold tail is checked only when Schedule() first needs it:
// a flipped or resealed-garbage tail decodes and replays, then fails
// Schedule() and re-encoding with the tail's error.
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
	coreLen := programCoreLen(enc)
	t.Run("corruption", func(t *testing.T) {
		// Every byte flipped in turn would be slow; stride through the
		// core. CRC32 catches all single-byte flips by construction.
		for i := 0; i < coreLen; i += 7 {
			bad := append([]byte(nil), enc...)
			bad[i] ^= 0x5a
			if _, err := exec.DecodeProgram(bad, tor, 1); err == nil {
				t.Fatalf("core flip at %d decoded", i)
			}
		}
	})
	ref, err := pg.Run(exec.Options{Serial: true})
	if err != nil {
		t.Fatal(err)
	}
	// A flipped tail byte is invisible to decode and to replay, and
	// fails the tail's checksum when Schedule() first reads it.
	t.Run("tail-corruption", func(t *testing.T) {
		for i := coreLen; i < len(enc); i += 97 {
			bad := append([]byte(nil), enc...)
			bad[i] ^= 0x5a
			dec, err := exec.DecodeProgram(bad, tor, 1)
			if err != nil {
				t.Fatalf("tail flip at %d rejected at decode: %v", i, err)
			}
			got, err := dec.Run(exec.Options{Serial: true})
			if err != nil {
				t.Fatalf("tail flip at %d: replay: %v", i, err)
			}
			sameBuffers(t, ref.Buffers, got.Buffers)
			if dec.Schedule() != nil || dec.SchedErr() == nil || !strings.Contains(dec.SchedErr().Error(), "cold tail checksum") {
				t.Fatalf("tail flip at %d: schedule error = %v, want a tail checksum error", i, dec.SchedErr())
			}
			if _, err := exec.EncodeProgram(dec, 1); err == nil || !errors.Is(err, dec.SchedErr()) {
				t.Fatalf("tail flip at %d: re-encode err = %v, want the tail's error", i, err)
			}
		}
	})
	// Garbage under a valid tail checksum gets past the CRC and must
	// still fail materialize's own checks.
	t.Run("tail-resealed", func(t *testing.T) {
		for _, fill := range []byte{0x00, 0x5a, 0xff} {
			bad := append([]byte(nil), enc...)
			for i := coreLen; i < len(bad)-4; i++ {
				bad[i] = fill
			}
			dec, err := exec.DecodeProgram(resealProgram(bad), tor, 1)
			if err != nil {
				t.Fatalf("fill %#x: core rejected: %v", fill, err)
			}
			if dec.Schedule() != nil || dec.SchedErr() == nil || strings.Contains(dec.SchedErr().Error(), "checksum") {
				t.Fatalf("fill %#x: schedule error = %v, want a structural tail error", fill, dec.SchedErr())
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
		// A 4x4 program relabelled as a 3x3 one (the fingerprints have
		// the same length) names the fabric it is decoded on, but its
		// node ids run past that fabric's.
		small := topology.MustNew(3, 3)
		relabelled := reseal(func(b []byte) { copy(b[28:], small.Fingerprint()) })
		if _, err := exec.DecodeProgram(relabelled, small, 1); err == nil || !strings.Contains(err.Error(), "node count") {
			t.Fatalf("relabelled fabric: err = %v, want a node count error", err)
		}
	})
	// A file an older build wrote (v1: span tables only; v2: spans plus
	// the descriptor plan; v3: the descriptor plan with a full delivery
	// tail; v4: last-hop windows and residual tail segments; v5: one
	// checksum over hot and cold sections) must be a clean, descriptive
	// error, which the disk tier turns into a miss and a delete.
	t.Run("stale-versions", func(t *testing.T) {
		for _, v := range []uint16{1, 2, 3, 4, 5} {
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
			bad, err := exec.EncodeWithPlanEdit(pg, 1, func(_ []exec.MoveRec, off, _ []int32) { tc.edit(off) })
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
	// The cold tail is read only when Schedule() materializes it, so a
	// file whose core is sound must not be able to make that read
	// allocate without bound or walk a route off the fabric.
	t.Run("cold-section", func(t *testing.T) {
		fpEnd := 28 + (len(tor.Fingerprint())+3)&^3 // header through the fabric fingerprint
		// numPhases, the fourth u32 count, sizes materialize's phase
		// table.
		t.Run("phase-count", func(t *testing.T) {
			bad := reseal(func(b []byte) { b[fpEnd+3*4+3] = 0xff })
			pg, err := exec.DecodeProgram(bad, tor, 1)
			if err == nil {
				pg.Schedule() // what a cache hit's telemetry would run next
			}
			if err == nil || !strings.Contains(err.Error(), "phases") {
				t.Fatalf("err = %v, want a phase count error", err)
			}
		})
		// The transfers' link windows size materialize's link table. The
		// first transfer record opens the tail after the per-step
		// transfer offsets; linkOff is its fifth field.
		t.Run("link-windows", func(t *testing.T) {
			numSteps := int(binary.LittleEndian.Uint32(enc[fpEnd+4:]))
			linkOff := coreLen + (numSteps+1)*4 + 4*4
			pg, err := exec.DecodeProgram(reseal(func(b []byte) { b[linkOff+3] = 0x7f }), tor, 1)
			if err != nil {
				t.Fatalf("core rejected: %v", err)
			}
			if pg.Schedule() != nil || pg.SchedErr() == nil || !strings.Contains(pg.SchedErr().Error(), "link windows") {
				t.Fatalf("schedule error = %v, want a link window error", pg.SchedErr())
			}
		})
		// A dragonfly's global ports are wired in the Pos direction
		// only; turn one global leg of D3(2,3)'s direct routes around in
		// the file's route-leg stream, the last section of the tail: one
		// count byte per transfer, then four bytes (dim, dir, hops) per
		// leg, padded to 4.
		t.Run("unwired-port", func(t *testing.T) {
			d := topology.MustNewDragonfly(2, 3)
			dsc, err := b.BuildSchedule(d)
			if err != nil {
				t.Fatal(err)
			}
			dpg, err := exec.Compile(dsc, exec.Options{})
			if err != nil {
				t.Fatal(err)
			}
			enc, err := exec.EncodeProgram(dpg, 1)
			if err != nil {
				t.Fatal(err)
			}
			segBytes := 0
			dsc.EachStep(func(_ *schedule.Phase, _ int, st *schedule.Step) {
				for _, tr := range st.Transfers {
					segBytes += 1 + 4*len(tr.Segments())
				}
			})
			at, turned := len(enc)-4-(segBytes+3)&^3, false
			dsc.EachStep(func(_ *schedule.Phase, _ int, st *schedule.Step) {
				for _, tr := range st.Transfers {
					at++
					for _, sg := range tr.Segments() {
						if !turned && sg.Dim >= d.LocalDims() {
							if enc[at] != byte(sg.Dim) || enc[at+1] != 0 {
								t.Fatalf("route leg stream at %d holds dim %d dir %d, want %+v", at, enc[at], enc[at+1], sg)
							}
							enc[at+1], turned = 1, true
						}
						at += 4
					}
				}
			})
			if !turned {
				t.Fatalf("direct@%s has no global leg", d)
			}
			unwired := resealProgram(enc)
			dec, err := exec.DecodeProgram(unwired, d, 1)
			if err != nil {
				t.Fatalf("core rejected: %v", err)
			}
			if dec.Schedule() != nil || dec.SchedErr() == nil || !strings.Contains(dec.SchedErr().Error(), "unwired") {
				t.Fatalf("schedule error = %v, want an unwired port error", dec.SchedErr())
			}
		})
	})
	// The proofs the delivery pass's deferral and the parallel replay's
	// sender shards rest on, on a program with log moves: insert windows
	// clear of the initial contents and of each other, so every log slot
	// is written at most once, and every move reading only its sender's
	// region.
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
			{"insert-windows-overlap", "overlapping an earlier insert window", func(moves []exec.MoveRec, _ []int32) {
				for j := 1; j < len(moves); j++ {
					if moves[j].Len <= moves[0].Len {
						moves[j].InsPos = moves[0].InsPos
						return
					}
				}
				t.Fatal("no log move fits over the first one's window")
			}},
			{"read-outside-sender", "outside its sender", func(moves []exec.MoveRec, _ []int32) {
				moves[0].Src = (moves[0].Src + 1) % int32(tor.Nodes())
			}},
		} {
			bad, err := exec.EncodeWithPlanEdit(fpg, 1, func(moves []exec.MoveRec, _, descBase []int32) {
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

// TestProgramCodecGolden pins the v6 byte format: the committed
// golden files must decode, and re-encoding the 4x4 programs must
// reproduce them bit-for-bit. A diff here means the format changed —
// bump CodecVersion rather than silently breaking every cached
// program on disk. Regenerate with -update after a deliberate version
// bump. Two shapes are pinned: the direct exchange, and the factored
// algorithm whose multi-phase program exercises the descriptor
// section (log moves, delivery descriptors over several regions) most
// heavily.
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
			path := filepath.Join("testdata", "program_v6_"+alg+"4x4.bin")
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
				t.Fatalf("encoding diverges from committed v6 golden (%d vs %d bytes); if the format changed deliberately, bump CodecVersion and -update", len(enc), len(want))
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
// program attaches its transfer table while other goroutines replay
// it, weigh it, trace it and encode it; under -race every access must
// be ordered, and every goroutine must see the same delivery, the same
// trace and the same bytes.
func TestDecodedTailConcurrentParallel(t *testing.T) {
	tor := topology.MustNew(8, 8)
	pg := decodedProgram(t, "factored", tor)
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
	for g := 2; g < goroutines; g += 2 {
		if traces[g] == 0 || traces[g] != traces[0] {
			t.Fatalf("goroutine %d traced %d events, goroutine 0 %d", g, traces[g], traces[0])
		}
	}
}

// TestDecodedSchedulePayloadsOneBacking: Schedule() on a decoded
// ring@16x16 hands out every payload as a capped window of one heap
// []int32 of exactly BytesMoved/4 ids, in transfer order, holding the
// compiled schedule's ids and never aliasing the file's bytes.
func TestDecodedSchedulePayloadsOneBacking(t *testing.T) {
	tor := topology.MustNew(16, 16)
	b, err := algorithm.For("ring")
	if err != nil {
		t.Fatal(err)
	}
	src, err := b.BuildSchedule(tor)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := exec.Compile(src, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := exec.EncodeProgram(pg, 0)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := exec.DecodeProgram(enc, tor, 0)
	if err != nil {
		t.Fatal(err)
	}
	sc := dec.Schedule()
	if sc == nil {
		t.Fatal(dec.SchedErr())
	}
	if !reflect.DeepEqual(sc.Phases, src.Phases) {
		t.Fatal("decoded schedule differs from the compiled one")
	}
	fileLo, fileHi := uintptr(unsafe.Pointer(&enc[0])), uintptr(unsafe.Pointer(&enc[len(enc)-1]))
	var base uintptr
	total := 0
	sc.EachStep(func(_ *schedule.Phase, _ int, s *schedule.Step) {
		for _, tr := range s.Transfers {
			if len(tr.Payload) == 0 {
				continue
			}
			at := uintptr(unsafe.Pointer(&tr.Payload[0]))
			if base == 0 {
				base = at
			}
			if at != base+uintptr(total)*4 {
				t.Fatalf("transfer %v payload at +%d bytes, want +%d: not one backing in transfer order", tr, at-base, total*4)
			}
			if cap(tr.Payload) != len(tr.Payload) {
				t.Fatalf("transfer %v payload window has cap %d, len %d", tr, cap(tr.Payload), len(tr.Payload))
			}
			if at >= fileLo && at <= fileHi {
				t.Fatalf("transfer %v payload aliases the encoded file", tr)
			}
			total += len(tr.Payload)
		}
	})
	if want := int(dec.BytesMoved() / 4); total != want {
		t.Fatalf("payloads carry %d ids, want numPayload %d", total, want)
	}
}

package exec_test

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"torusx/internal/algorithm"
	"torusx/internal/exec"
	"torusx/internal/topology"
	trafficpkg "torusx/internal/traffic"
)

// The decode fuzzers share one contract, checked by fuzzDecodeReplay:
// DecodeProgram never panics, and any program it accepts must REPLAY
// safely — serially, in parallel, and through ReplayInto — because the
// descriptor plan is executed with unchecked gathers whose every index
// the decoder promised to have bounds-validated. A panic or
// out-of-range access here means a corrupted or hostile cache file can
// crash (or worse, silently corrupt) the host process. Each input is
// decoded twice: once verbatim (exercising the CRC/framing layer) and
// once with its checksum recomputed, so mutations reach the structural
// validation behind the integrity gate instead of dying at a checksum
// 1/2^32 of the time. The torus entry points differ only in where
// their seeds point the mutator; the dragonfly one decodes against a
// fabric with unwired ports.

// FuzzProgramDecode seeds the mutator with whole programs plus
// truncated, bit-flipped and degenerate framings.
func FuzzProgramDecode(f *testing.F) {
	tor := topology.MustNew(4, 4)
	direct := fuzzSeedProgram(f, tor, "direct")
	f.Add(direct)
	f.Add(fuzzSeedProgram(f, tor, "proposed-sim"))
	f.Add(fuzzSeedProgram(f, tor, "factored"))
	f.Add(direct[:len(direct)/2])
	f.Add(direct[:16])
	flipped := append([]byte(nil), direct...)
	flipped[len(flipped)/3] ^= 0xff
	f.Add(flipped)
	f.Add([]byte("TXPG"))
	f.Add([]byte{})
	f.Fuzz(fuzzDecodeReplay(tor))
}

// FuzzDescriptorDecode seeds the mutator at the replay-facing tables:
// the core's log-move and descriptor sections the unchecked gathers
// read.
func FuzzDescriptorDecode(f *testing.F) {
	tor := topology.MustNew(4, 4)
	direct := fuzzSeedProgram(f, tor, "direct")
	f.Add(direct)
	f.Add(fuzzSeedProgram(f, tor, "factored"))
	f.Add(fuzzSeedProgram(f, tor, "proposed-sim"))
	planFlip := append([]byte(nil), direct...)
	planFlip[2*len(planFlip)/3] ^= 0x10 // land mutations in the replay plan tables
	f.Add(planFlip)
	f.Fuzz(fuzzDecodeReplay(tor))
}

// FuzzDragonflyDecode runs the same contract on a partially wired
// fabric, D3(2,3), whose unwired ports leave gaps in its link ids.
func FuzzDragonflyDecode(f *testing.F) {
	d := topology.MustNewDragonfly(2, 3)
	f.Add(fuzzSeedProgram(f, d, "direct"))
	f.Add(fuzzSeedProgram(f, d, "dimexchange"))
	f.Fuzz(fuzzDecodeReplay(d))
}

// fuzzSeedProgram compiles alg on tor and returns its encoded program.
func fuzzSeedProgram(f *testing.F, tor topology.Fabric, alg string) []byte {
	f.Helper()
	b, err := algorithm.For(alg)
	if err != nil {
		f.Fatal(err)
	}
	sc, err := b.BuildSchedule(tor)
	if err != nil {
		f.Fatal(err)
	}
	pg, err := exec.Compile(sc, exec.Options{})
	if err != nil {
		f.Fatal(err)
	}
	enc, err := exec.EncodeProgram(pg, 0)
	if err != nil {
		f.Fatal(err)
	}
	return enc
}

// fuzzDecodeReplay is the shared fuzz body: decode, run and replay
// whatever the decoder accepts, verbatim and CRC-resealed.
func fuzzDecodeReplay(tor topology.Fabric) func(*testing.T, []byte) {
	return func(t *testing.T, data []byte) {
		check := func(b []byte) {
			pg, err := exec.DecodeProgram(b, tor, 0)
			if err != nil {
				return
			}
			// Errors are the executor's job to report; panics and wild
			// memory accesses are the bug class under test. A decoded
			// program has no schedule source.
			if sc, err := pg.Schedule(); sc != nil || err == nil {
				t.Fatalf("decoded program without a source: Schedule() = %v, %v", sc, err)
			}
			_ = pg.NumPhases()
			_ = pg.Measure()
			_ = pg.MaxSharing()
			_ = pg.SizeBytes()
			a := pg.NewArena()
			if _, err := pg.RunArena(a, exec.Options{Serial: true}); err != nil {
				return
			}
			if _, err := pg.RunArena(a, exec.Options{Workers: 2}); err != nil {
				return
			}
			if !pg.Replayable() {
				return
			}
			dst := make([]int32, pg.DeliverySize())
			_ = pg.ReplayInto(a, dst, exec.Options{Serial: true})
			_ = pg.ReplayInto(a, dst, exec.Options{Workers: 2})
		}
		check(data)
		if len(data) >= 8 {
			check(resealProgram(data))
		}
	}
}

// corpusSeed is one committed seed of the decode fuzzers' corpora
// (testdata/fuzz/<target>/<name>): a 4x4 (or D3(2,3)) program file in
// the current format, built by make. Seeds marked replays decode and
// replay; the others reach a structural check behind the checksum.
type corpusSeed struct {
	target, name string
	replays      bool
	make         func(t *testing.T) []byte
}

// corpusSeeds lists every committed seed. The program_v3/v4/v5 names
// are kept from the formats they first pinned; each now holds a current
// program: _v3 compiled under the implicit all-to-all matrix, _v4 under
// a sparse matrix, _v5 under the all-to-all matrix listed explicitly,
// and each _mut the same file with its schedule digest flipped, which
// decode and replay never read.
func corpusSeeds() []corpusSeed {
	tor := topology.MustNew(4, 4)
	program := func(t *testing.T, fab topology.Fabric, alg, traffic string) *exec.Program {
		t.Helper()
		b, err := algorithm.For(alg)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := b.BuildSchedule(fab)
		if err != nil {
			t.Fatal(err)
		}
		var opt exec.Options
		switch traffic {
		case "sparse":
			m, err := trafficpkg.ParseSpec("uniform:p=0.5,seed=1", fab.Nodes())
			if err != nil {
				t.Fatal(err)
			}
			if sc, err = trafficpkg.Prune(sc, m); err != nil {
				t.Fatal(err)
			}
			opt.Traffic = m.Blocks()
		case "explicit":
			opt.Traffic = trafficpkg.Full(fab.Nodes()).Blocks()
		}
		pg, err := exec.Compile(sc, opt)
		if err != nil {
			t.Fatal(err)
		}
		return pg
	}
	encode := func(t *testing.T, pg *exec.Program) []byte {
		t.Helper()
		enc, err := exec.EncodeProgram(pg, 0)
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}
	flipDigest := func(b []byte) []byte {
		b[16] ^= 0xff
		return resealProgram(b)
	}
	var seeds []corpusSeed
	for v, traffic := range map[string]string{"v3": "", "v4": "sparse", "v5": "explicit"} {
		for _, alg := range []string{"direct", "factored"} {
			alg, traffic := alg, traffic
			name := "program_" + v + "_" + alg + "4x4"
			seeds = append(seeds,
				corpusSeed{"FuzzProgramDecode", name, true, func(t *testing.T) []byte {
					return encode(t, program(t, tor, alg, traffic))
				}},
				corpusSeed{"FuzzProgramDecode", name + "_mut", true, func(t *testing.T) []byte {
					return flipDigest(encode(t, program(t, tor, alg, traffic)))
				}})
		}
	}
	return append(seeds,
		// Ring lays every node's initial blocks out in relative order
		// (flag bit 3), as every program of a declared lattice does.
		corpusSeed{"FuzzProgramDecode", "relative_order_ring4x4", true, func(t *testing.T) []byte {
			return encode(t, program(t, tor, "ring", ""))
		}},
		// A decoded program may report any phase count its step headers
		// fall below; it sizes nothing.
		corpusSeed{"FuzzProgramDecode", "phase_count_past_cold_section", true, func(t *testing.T) []byte {
			b := encode(t, program(t, tor, "direct", ""))
			binary.LittleEndian.PutUint32(b[programFPEnd(b)+8:], 0xff000001)
			return resealProgram(b)
		}},
		// A log move whose descriptor window runs past the table.
		corpusSeed{"FuzzProgramDecode", "link_window_past_route_table", false, func(t *testing.T) []byte {
			pg := program(t, tor, "factored", "")
			b, err := exec.EncodeWithPlanEdit(pg, 0, func(moves []exec.MoveRec, _, _ []int32, _ []exec.DescRec) {
				moves[0].DescOff = int32(pg.Stats().DescCount)
			})
			if err != nil {
				t.Fatal(err)
			}
			return b
		}},
		// Node 0's delivery window ends past the descriptor table.
		corpusSeed{"FuzzProgramDecode", "delivery_window_past_end", false, func(t *testing.T) []byte {
			b, err := exec.EncodeWithPlanEdit(program(t, tor, "direct", ""), 0, func(_ []exec.MoveRec, off, _ []int32, _ []exec.DescRec) {
				off[1] = off[len(off)-1] + 1
			})
			if err != nil {
				t.Fatal(err)
			}
			return b
		}},
		// An early fuzzer find: a short, mostly-ASCII header, restamped
		// with the current version so it reaches the structural checks.
		corpusSeed{"FuzzProgramDecode", "25df0781752ad294", false, func(t *testing.T) []byte {
			b := readCorpusSeed(t, "FuzzProgramDecode", "25df0781752ad294")
			binary.LittleEndian.PutUint16(b[4:], exec.CodecVersion)
			return resealProgram(b)
		}},
		corpusSeed{"FuzzDragonflyDecode", "unwired_global_leg", true, func(t *testing.T) []byte {
			return encode(t, program(t, topology.MustNewDragonfly(2, 3), "direct", "explicit"))
		}},
	)
}

func corpusPath(target, name string) string { return filepath.Join("testdata", "fuzz", target, name) }

// readCorpusSeed reads one committed seed's bytes.
func readCorpusSeed(t *testing.T, target, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(corpusPath(target, name))
	if err != nil {
		t.Fatal(err)
	}
	lit, ok := strings.CutPrefix(string(raw), "go test fuzz v1\n[]byte(")
	if lit, ok = strings.CutSuffix(lit, ")\n"); !ok {
		t.Fatalf("%s/%s: not a one-[]byte corpus file", target, name)
	}
	s, err := strconv.Unquote(lit)
	if err != nil {
		t.Fatalf("%s/%s: %v", target, name, err)
	}
	return []byte(s)
}

// TestFuzzCorpusCurrent holds the decode fuzzers' committed corpora to
// the current format: every seed carries this build's codec version, so
// none stops at the version check, and the seeds built from whole
// programs decode and replay. With -update it rewrites the corpora.
func TestFuzzCorpusCurrent(t *testing.T) {
	for _, seed := range corpusSeeds() {
		t.Run(seed.target+"/"+seed.name, func(t *testing.T) {
			if *updateGolden {
				data := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed.make(t))
				if err := os.WriteFile(corpusPath(seed.target, seed.name), []byte(data), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			b := readCorpusSeed(t, seed.target, seed.name)
			if len(b) < 6 || string(b[:4]) != "TXPG" || binary.LittleEndian.Uint16(b[4:]) != exec.CodecVersion {
				t.Fatalf("seed is not a v%d program file (regenerate with -update)", exec.CodecVersion)
			}
			if !seed.replays {
				return
			}
			fab := topology.Fabric(topology.MustNew(4, 4))
			if seed.target == "FuzzDragonflyDecode" {
				fab = topology.MustNewDragonfly(2, 3)
			}
			pg, err := exec.DecodeProgram(b, fab, 0)
			if err != nil {
				t.Fatalf("seed does not decode: %v", err)
			}
			if _, err := pg.Run(exec.Options{Serial: true}); err != nil {
				t.Fatalf("seed does not replay: %v", err)
			}
		})
	}
}

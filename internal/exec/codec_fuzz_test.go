package exec_test

import (
	"testing"

	"torusx/internal/algorithm"
	"torusx/internal/exec"
	"torusx/internal/topology"
)

// The decode fuzzers share one contract, checked by fuzzDecodeReplay:
// DecodeProgram never panics, and any program it accepts must
// materialize its lazy schedule and REPLAY safely — serially, in
// parallel, and through ReplayInto — because the descriptor plan is
// executed with unchecked gathers whose every index the decoder
// promised to have bounds-validated. A panic or out-of-range access
// here means a corrupted or hostile cache file can crash (or worse,
// silently corrupt) the host process. Each input is decoded twice:
// once verbatim (exercising the CRC/framing layer) and once with the
// core's and the tail's checksums recomputed, so mutations reach the
// structural validation behind the integrity gates instead of dying
// at a checksum 1/2^32 of the time. The torus entry points differ only in
// where their seeds point the mutator; the dragonfly one decodes
// against a fabric with unwired ports.

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
	planFlip[2*programCoreLen(planFlip)/3] ^= 0x10 // land mutations in the replay plan tables
	f.Add(planFlip)
	f.Fuzz(fuzzDecodeReplay(tor))
}

// FuzzDragonflyDecode runs the same contract on a partially wired
// fabric: D3(2,3) has unwired ports, so a mutated route leg can point
// off the fabric, and materialize must reject it rather than walk it.
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

// fuzzDecodeReplay is the shared fuzz body: decode, materialize, run
// and replay whatever the decoder accepts, verbatim and CRC-resealed.
func fuzzDecodeReplay(tor topology.Fabric) func(*testing.T, []byte) {
	return func(t *testing.T, data []byte) {
		check := func(b []byte) {
			pg, err := exec.DecodeProgram(b, tor, 0)
			if err != nil {
				return
			}
			// Errors are the cold section's and the executor's job to
			// report; panics and wild memory accesses are the bug class
			// under test.
			if sc := pg.Schedule(); sc == nil && pg.SchedErr() == nil {
				t.Fatal("nil schedule with nil error")
			}
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

package baseline

import (
	"testing"

	"torusx/internal/costmodel"
	"torusx/internal/oracle"
	"torusx/internal/schedule"
	"torusx/internal/topology"
)

func TestLogTimeRequiresPow2(t *testing.T) {
	if _, err := schedule.Collect(topology.MustNew(12, 8), EmitLogTime); err == nil {
		t.Fatal("12x8 should be rejected")
	}
	if _, err := schedule.Collect(topology.MustNew(8, 6), EmitLogTime); err == nil {
		t.Fatal("8x6 should be rejected")
	}
}

func TestLogTimeDelivers(t *testing.T) {
	for _, dims := range [][]int{{4, 4}, {8, 8}, {16, 8}, {8, 8, 8}, {16, 4}, {4, 4, 4, 4}} {
		if _, err := execute(schedule.Collect(topology.MustNew(dims...), EmitLogTime)); err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
	}
}

func TestLogTimeStartupClass(t *testing.T) {
	// log2(ai) rounds per dimension: a 2^d x 2^d torus needs exactly
	// 2d startups — the O(d) class of [9], exponentially below the
	// proposed algorithm's 2^{d-1}+2.
	for d := 2; d <= 4; d++ {
		a := 1 << uint(d)
		res, err := execute(schedule.Collect(topology.MustNew(a, a), EmitLogTime))
		if err != nil {
			t.Fatal(err)
		}
		if res.Measure.Steps != 2*d {
			t.Fatalf("d=%d: %d steps, want %d", d, res.Measure.Steps, 2*d)
		}
		prop := costmodel.ProposedND([]int{a, a})
		if d >= 4 && res.Measure.Steps >= prop.Steps {
			t.Fatalf("d=%d: logtime %d startups should beat proposed %d",
				d, res.Measure.Steps, prop.Steps)
		}
		// ... at the price of a larger transmitted volume.
		if res.Measure.Blocks <= prop.Blocks {
			t.Fatalf("d=%d: logtime volume %d should exceed proposed %d",
				d, res.Measure.Blocks, prop.Blocks)
		}
	}
}

func TestLogTimeOnePortCompliant(t *testing.T) {
	// Every half-step must satisfy the one-port model even though it
	// is not link-contention-free.
	res, err := execute(schedule.Collect(topology.MustNew(8, 8), EmitLogTime))
	if err != nil {
		t.Fatal(err)
	}
	res.Schedule.EachStep(func(p *schedule.Phase, si int, st *schedule.Step) {
		sends := map[topology.NodeID]bool{}
		recvs := map[topology.NodeID]bool{}
		for _, tr := range st.Transfers {
			if sends[tr.Src] {
				t.Fatalf("%s step %d: node %d sends twice", p.Name, si, tr.Src)
			}
			if recvs[tr.Dst] {
				t.Fatalf("%s step %d: node %d receives twice", p.Name, si, tr.Dst)
			}
			sends[tr.Src] = true
			recvs[tr.Dst] = true
		}
	})
}

func TestLogTimeHasLinkContention(t *testing.T) {
	// Distance-2^r worms of adjacent same-lane senders share links, so
	// unlike the proposed schedule, LogTime rounds with r >= 2 are not
	// wormhole contention-free — the structural reason Table 2 charges
	// minimum-startup schemes more transmission/propagation time. Those
	// rounds declare Shared (link time-sharing), which Check() accepts
	// under the one-port model while the strict per-step checker still
	// rejects them, and the sharing factor reaches the shift distance.
	tor := topology.MustNew(16, 16)
	res, err := execute(schedule.Collect(tor, EmitLogTime))
	if err != nil {
		t.Fatal(err)
	}
	if err := oracle.Check(res.Schedule); err != nil {
		t.Fatalf("shared steps should pass the one-port check: %v", err)
	}
	contended, maxSharing := 0, 1
	res.Schedule.EachStep(func(p *schedule.Phase, si int, st *schedule.Step) {
		if !st.Shared {
			return
		}
		contended++
		if err := oracle.CheckStep(tor, p.Name, si, st); err == nil {
			t.Fatalf("%s step %d: declared Shared but is link-disjoint", p.Name, si)
		}
		if f := oracle.SharingFactor(tor, st); f > maxSharing {
			maxSharing = f
		}
	})
	if contended == 0 {
		t.Fatal("expected Shared rounds with distance >= 2")
	}
	if maxSharing < 4 {
		t.Fatalf("max sharing factor = %d, want >= 4 (distance-4+ rounds)", maxSharing)
	}
}

func TestLogTimeCrossover(t *testing.T) {
	// With large enough startup cost, the O(d)-startup exchange beats
	// the proposed algorithm; with small startup the proposed wins —
	// the trade-off the paper's conclusion describes.
	tor := topology.MustNew(32, 32)
	lt, err := execute(schedule.Collect(tor, EmitLogTime))
	if err != nil {
		t.Fatal(err)
	}
	prop := costmodel.ProposedND([]int{32, 32})

	smallTs := costmodel.Params{Ts: 1, Tc: 0.01, Tl: 0.05, Rho: 0.005, M: 64}
	if smallTs.Completion(prop) >= smallTs.Completion(lt.Measure) {
		t.Fatalf("small ts: proposed %g should beat logtime %g",
			smallTs.Completion(prop), smallTs.Completion(lt.Measure))
	}
	hugeTs := costmodel.Params{Ts: 10000, Tc: 0.01, Tl: 0.05, Rho: 0.005, M: 64}
	if hugeTs.Completion(lt.Measure) >= hugeTs.Completion(prop) {
		t.Fatalf("huge ts: logtime %g should beat proposed %g",
			hugeTs.Completion(lt.Measure), hugeTs.Completion(prop))
	}
}

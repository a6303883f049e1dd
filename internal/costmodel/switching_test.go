package costmodel

import (
	"math"
	"testing"
)

func TestSwitchingString(t *testing.T) {
	if Wormhole.String() != "wormhole" || StoreAndForward.String() != "store-and-forward" {
		t.Fatal("String mismatch")
	}
	if Switching(42).String() != "Switching(42)" {
		t.Fatal("unknown String mismatch")
	}
}

func TestStepTimeModes(t *testing.T) {
	p := Params{Ts: 10, Tc: 0.1, Tl: 1, Rho: 0, M: 10}
	// 4 blocks * 10 B * 0.1 = 4us transmission; 3 hops.
	if got := p.StepTime(Wormhole, 4, 3); math.Abs(got-(10+4+3)) > 1e-9 {
		t.Fatalf("wormhole = %g", got)
	}
	if got := p.StepTime(VirtualCutThrough, 4, 3); math.Abs(got-17) > 1e-9 {
		t.Fatalf("vct = %g", got)
	}
	if got := p.StepTime(Circuit, 4, 3); math.Abs(got-17) > 1e-9 {
		t.Fatalf("circuit = %g", got)
	}
	// SAF: 10 + 3*(4+1) = 25.
	if got := p.StepTime(StoreAndForward, 4, 3); math.Abs(got-25) > 1e-9 {
		t.Fatalf("saf = %g", got)
	}
}

func TestProposedStepsSumToTable1(t *testing.T) {
	for _, dims := range [][]int{{12, 12}, {12, 8}, {8, 8, 8}, {8, 8, 4, 4}} {
		steps := ProposedSteps(dims)
		cf := ProposedND(dims)
		if len(steps) != cf.Steps {
			t.Fatalf("%v: %d steps, want %d", dims, len(steps), cf.Steps)
		}
		blocks, hops := 0, 0
		for _, s := range steps {
			blocks += s.Blocks
			hops += s.Hops
		}
		if blocks != cf.Blocks {
			t.Fatalf("%v: %d blocks, want %d", dims, blocks, cf.Blocks)
		}
		if hops != cf.Hops {
			t.Fatalf("%v: %d hops, want %d", dims, hops, cf.Hops)
		}
	}
}

func TestRingStepsSumToClosedForm(t *testing.T) {
	for _, dims := range [][]int{{8, 8}, {12, 8}, {4, 4, 4}} {
		steps := RingSteps(dims)
		// RingClosedForm lives in package baseline; recompute here.
		wantSteps, wantBlocks := 0, 0
		n := 1
		for _, d := range dims {
			n *= d
		}
		for _, ai := range dims {
			wantSteps += ai - 1
			wantBlocks += (ai - 1) * ai / 2 * (n / ai)
		}
		if len(steps) != wantSteps {
			t.Fatalf("%v: %d steps, want %d", dims, len(steps), wantSteps)
		}
		blocks := 0
		for _, s := range steps {
			blocks += s.Blocks
			if s.Hops != 1 {
				t.Fatalf("%v: ring step with %d hops", dims, s.Hops)
			}
		}
		if blocks != wantBlocks {
			t.Fatalf("%v: %d blocks, want %d", dims, blocks, wantBlocks)
		}
	}
}

func TestWormholeEqualsTable1Completion(t *testing.T) {
	// CompletionSwitched under wormhole must equal the flat Completion
	// of the Table 1 measure.
	p := T3D(64)
	for _, dims := range [][]int{{12, 12}, {8, 8, 8}} {
		cf := ProposedND(dims)
		got := p.CompletionSwitched(Wormhole, ProposedSteps(dims), cf.RearrangedBlocks)
		want := p.Completion(cf)
		if math.Abs(got-want) > 1e-6 {
			t.Fatalf("%v: switched %g != flat %g", dims, got, want)
		}
	}
}

func TestStoreAndForwardErodesCombiningAdvantage(t *testing.T) {
	// Under store-and-forward the proposed algorithm retransmits each
	// 4-hop step four times, while the ring baseline's 1-hop steps are
	// unaffected — so the bandwidth advantage of stride-4 combining
	// disappears and ring becomes transmission-competitive, exactly why
	// the paper targets wormhole-class networks.
	p := Params{Ts: 5, Tc: 0.01, Tl: 0.05, Rho: 0.005, M: 64}
	dims := []int{16, 16}
	cf := ProposedND(dims)
	propWH := p.CompletionSwitched(Wormhole, ProposedSteps(dims), cf.RearrangedBlocks)
	propSF := p.CompletionSwitched(StoreAndForward, ProposedSteps(dims), cf.RearrangedBlocks)
	ringWH := p.CompletionSwitched(Wormhole, RingSteps(dims), 0)
	ringSF := p.CompletionSwitched(StoreAndForward, RingSteps(dims), 0)

	if propWH >= ringWH {
		t.Fatalf("wormhole: proposed %g should beat ring %g", propWH, ringWH)
	}
	// SAF slows the proposed algorithm by ~4x in its transmission term
	// but leaves ring almost unchanged.
	if propSF < 2*propWH {
		t.Fatalf("SAF should slow proposed substantially: %g vs %g", propSF, propWH)
	}
	if ringSF > 1.5*ringWH {
		t.Fatalf("SAF should barely affect ring: %g vs %g", ringSF, ringWH)
	}
}

package packetsim

import (
	"testing"

	"torusx/internal/costmodel"
	"torusx/internal/oracle"
	"torusx/internal/topology"
	"torusx/internal/wormhole"
)

func path(t *topology.Torus, src topology.Coord, dim int, dir topology.Direction, hops int) []topology.Link {
	return t.PathLinks(src, dim, dir, hops)
}

func TestSingleMessageLatency(t *testing.T) {
	tor := topology.MustNew(16)
	for _, tc := range []struct{ hops, flits int }{{1, 1}, {4, 1}, {1, 10}, {4, 64}} {
		msgs := []Message{{ID: 0, Path: path(tor, topology.Coord{0}, 0, topology.Pos, tc.hops), Flits: tc.flits}}
		st, err := Simulate(msgs)
		if err != nil {
			t.Fatal(err)
		}
		// Store-and-forward: h hops, each costing flits + 1 cycles.
		if want := tc.hops * (tc.flits + 1); st.Cycles != want {
			t.Fatalf("h=%d L=%d: %d cycles, want %d", tc.hops, tc.flits, st.Cycles, want)
		}
		if st.QueueWaits != 0 {
			t.Fatal("single message should never queue")
		}
	}
}

func TestMatchesCostModelStepTime(t *testing.T) {
	// The simulated SAF latency must match costmodel.StepTime for
	// StoreAndForward with ts=0, tc=1 cycle/flit, tl=1 cycle/hop:
	// h*(b*m + 1).
	tor := topology.MustNew(16)
	p := costmodel.Params{Ts: 0, Tc: 1, Tl: 1, M: 1}
	for _, tc := range []struct{ hops, blocks int }{{4, 10}, {2, 32}} {
		msgs := []Message{{ID: 0, Path: path(tor, topology.Coord{0}, 0, topology.Pos, tc.hops), Flits: tc.blocks}}
		st, err := Simulate(msgs)
		if err != nil {
			t.Fatal(err)
		}
		want := p.StepTime(costmodel.StoreAndForward, tc.blocks, tc.hops)
		if float64(st.Cycles) != want {
			t.Fatalf("h=%d b=%d: simulated %d, model %g", tc.hops, tc.blocks, st.Cycles, want)
		}
	}
}

func TestQueueingSerializes(t *testing.T) {
	tor := topology.MustNew(16)
	// Two messages competing for link 0->1 as their first hop.
	shared := path(tor, topology.Coord{0}, 0, topology.Pos, 1)
	msgs := []Message{
		{ID: 0, Path: shared, Flits: 50},
		{ID: 1, Path: shared, Flits: 50},
	}
	st, err := Simulate(msgs)
	if err != nil {
		t.Fatal(err)
	}
	if st.Completion[0] != 51 {
		t.Fatalf("first message at %d, want 51", st.Completion[0])
	}
	if st.Completion[1] != 101 {
		t.Fatalf("second message at %d, want 101 (queued)", st.Completion[1])
	}
	if st.QueueWaits != 50 {
		t.Fatalf("queue waits = %d, want 50", st.QueueWaits)
	}
}

func TestNoDeadlockOnRing(t *testing.T) {
	// The pattern that deadlocks under single-VC wormhole switching
	// (a full ring of same-direction worms) merely queues under
	// store-and-forward, since links are released hop by hop.
	tor := topology.MustNew(16)
	const flits = 97
	var msgs []Message
	for i := 0; i < 16; i++ {
		msgs = append(msgs, Message{ID: i, Path: path(tor, topology.Coord{i}, 0, topology.Pos, 4), Flits: flits})
	}
	st, err := Simulate(msgs)
	if err != nil {
		t.Fatalf("store-and-forward must not deadlock: %v", err)
	}
	if st.Cycles < 4*(flits+1) {
		t.Fatalf("cycles %d below uncontended latency", st.Cycles)
	}
}

func TestValidation(t *testing.T) {
	if _, err := Simulate([]Message{{ID: 0, Flits: 1}}); err == nil {
		t.Fatal("empty path should fail")
	}
	tor := topology.MustNew(8)
	if _, err := Simulate([]Message{{ID: 0, Path: path(tor, topology.Coord{0}, 0, topology.Pos, 1), Flits: 0}}); err == nil {
		t.Fatal("zero flits should fail")
	}
}

func TestProposedStepSAFVsWormhole(t *testing.T) {
	// The proposed schedule's 4-hop steps pay ~4x the transmission
	// time under store-and-forward: the quantitative reason the paper
	// targets wormhole-class networks.
	res, err := oracle.Run(topology.MustNew(8, 8), oracle.Options{})
	if err != nil {
		t.Fatal(err)
	}
	step := &res.Schedule.Phases[0].Steps[0]
	const fpb = 4
	saf, err := Simulate(FromStep(res.Torus, step, fpb))
	if err != nil {
		t.Fatal(err)
	}
	wh, err := wormhole.Simulate(wormhole.FromStep(res.Torus, step, fpb), 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if saf.Cycles < 3*wh.Cycles {
		t.Fatalf("SAF %d cycles should be ~4x wormhole %d", saf.Cycles, wh.Cycles)
	}
	if saf.QueueWaits != 0 {
		t.Fatalf("contention-free step should not queue, got %d", saf.QueueWaits)
	}
}

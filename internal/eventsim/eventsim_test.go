package eventsim

import (
	"math"
	"testing"

	"torusx/internal/costmodel"
	"torusx/internal/oracle"
	"torusx/internal/topology"
)

func run(t *testing.T, dims ...int) (*oracle.Result, *Result) {
	t.Helper()
	res, err := oracle.Run(topology.MustNew(dims...), oracle.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := costmodel.T3D(64)
	return res, Run(res.Torus, res.Schedule, p, res.Torus.Nodes())
}

func TestSquareTorusMatchesSynchronousModel(t *testing.T) {
	// On a square torus every node does identical work each step, so
	// removing the barrier recovers nothing: async makespan equals the
	// paper's synchronous completion time — and both equal the Table 1
	// closed form.
	for _, dims := range [][]int{{8, 8}, {12, 12}, {8, 8, 8}} {
		ex, r := run(t, dims...)
		if math.Abs(r.Makespan-r.SyncCompletion) > 1e-6 {
			t.Fatalf("%v: makespan %g != sync %g", dims, r.Makespan, r.SyncCompletion)
		}
		p := costmodel.T3D(64)
		want := p.Completion(costmodel.Measure{
			Steps:            ex.Counters.Steps,
			Blocks:           ex.Counters.SumMaxBlocks,
			Hops:             ex.Counters.SumMaxHops,
			RearrangedBlocks: ex.Counters.RearrangedBlocksMaxPerNode,
		})
		if math.Abs(r.SyncCompletion-want) > 1e-6 {
			t.Fatalf("%v: sync %g != Table 1 completion %g", dims, r.SyncCompletion, want)
		}
	}
}

func TestSlackNonNegative(t *testing.T) {
	for _, dims := range [][]int{{8, 8}, {12, 8}, {16, 8}, {12, 8, 4}} {
		_, r := run(t, dims...)
		if r.Slack < -1e-9 {
			t.Fatalf("%v: negative slack %g", dims, r.Slack)
		}
		if r.Makespan <= 0 {
			t.Fatalf("%v: makespan %g", dims, r.Makespan)
		}
	}
}

func TestPerNodeFinishTimesSymmetricOnSquare(t *testing.T) {
	_, r := run(t, 8, 8)
	for i, v := range r.PerNode {
		if math.Abs(v-r.PerNode[0]) > 1e-6 {
			t.Fatalf("node %d finishes at %g, node 0 at %g", i, v, r.PerNode[0])
		}
	}
}

func TestRunSkewedZeroMatchesRun(t *testing.T) {
	res, err := oracle.Run(topology.MustNew(12, 8), oracle.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := costmodel.T3D(64)
	base := Run(res.Torus, res.Schedule, p, res.Torus.Nodes())
	skewed := RunSkewed(res.Torus, res.Schedule, p, res.Torus.Nodes(),
		func(node, step int) float64 { return 0 })
	if math.Abs(base.Makespan-skewed.Makespan) > 1e-9 ||
		math.Abs(base.SyncCompletion-skewed.SyncCompletion) > 1e-9 {
		t.Fatalf("zero skew changed results: %+v vs %+v", base, skewed)
	}
}

func TestRunSkewedConstantShiftsBoth(t *testing.T) {
	res, err := oracle.Run(topology.MustNew(8, 8), oracle.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := costmodel.T3D(64)
	base := Run(res.Torus, res.Schedule, p, res.Torus.Nodes())
	const c = 7.5
	skewed := RunSkewed(res.Torus, res.Schedule, p, res.Torus.Nodes(),
		func(node, step int) float64 { return c })
	steps := float64(res.Counters.Steps)
	if math.Abs(skewed.SyncCompletion-(base.SyncCompletion+c*steps)) > 1e-6 {
		t.Fatalf("sync: %g, want %g", skewed.SyncCompletion, base.SyncCompletion+c*steps)
	}
	// Uniform skew cannot create slack on a square torus.
	if math.Abs(skewed.Slack) > 1e-6 {
		t.Fatalf("uniform skew slack = %g, want 0", skewed.Slack)
	}
}

func TestRunSkewedNoiseAmplification(t *testing.T) {
	// Random per-node noise: the synchronous model charges the worst
	// straggler every step, while barrier-free execution lets
	// uncorrelated noise overlap — slack must appear and the makespan
	// must stay between the noise-free time and the synchronous bound.
	res, err := oracle.Run(topology.MustNew(8, 8), oracle.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := costmodel.T3D(64)
	base := Run(res.Torus, res.Schedule, p, res.Torus.Nodes())
	// Deterministic pseudo-noise in [0, 20us).
	noise := func(node, step int) float64 {
		x := uint64(node*2654435761 + step*40503 + 12345)
		x ^= x >> 13
		x *= 0x2545F4914F6CDD1D
		x ^= x >> 35
		return float64(x%2000) / 100.0
	}
	skewed := RunSkewed(res.Torus, res.Schedule, p, res.Torus.Nodes(), noise)
	if skewed.Slack <= 0 {
		t.Fatalf("uncorrelated noise should create slack, got %g", skewed.Slack)
	}
	if skewed.Makespan < base.Makespan {
		t.Fatal("noise cannot speed the run up")
	}
	if skewed.Makespan > skewed.SyncCompletion {
		t.Fatal("async must not exceed the synchronous bound")
	}
	// Negative skew values are clamped to zero.
	neg := RunSkewed(res.Torus, res.Schedule, p, res.Torus.Nodes(),
		func(node, step int) float64 { return -5 })
	if math.Abs(neg.Makespan-base.Makespan) > 1e-9 {
		t.Fatal("negative skew should be clamped")
	}
}

func TestNonSquareNodesFinishUnevenly(t *testing.T) {
	// In a 16x8 torus the short-dimension groups idle during late ring
	// steps; without a barrier some nodes finish earlier than others.
	_, r := run(t, 16, 8)
	min, max := math.Inf(1), math.Inf(-1)
	for _, v := range r.PerNode {
		min = math.Min(min, v)
		max = math.Max(max, v)
	}
	if !(min < max) {
		t.Fatalf("expected uneven finish times, got uniform %g", min)
	}
	if math.Abs(max-r.Makespan) > 1e-9 {
		t.Fatal("makespan must be the max finish time")
	}
}

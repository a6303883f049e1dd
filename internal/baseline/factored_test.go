package baseline

import (
	"testing"

	"torusx/internal/costmodel"
	"torusx/internal/schedule"
	"torusx/internal/topology"
)

func TestPrimeFactors(t *testing.T) {
	cases := map[int][]int{
		2:  {2},
		4:  {2, 2},
		12: {2, 2, 3},
		16: {2, 2, 2, 2},
		15: {3, 5},
		7:  {7},
		60: {2, 2, 3, 5},
	}
	for v, want := range cases {
		got := primeFactors(v)
		if len(got) != len(want) {
			t.Fatalf("primeFactors(%d) = %v, want %v", v, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("primeFactors(%d) = %v, want %v", v, got, want)
			}
		}
	}
}

func TestFactoredDelivers(t *testing.T) {
	for _, dims := range [][]int{{4, 4}, {12, 8}, {6, 5}, {9, 3}, {12, 12}, {5, 3, 2}} {
		if _, err := execute(schedule.Collect(topology.MustNew(dims...), EmitFactored)); err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
	}
}

func TestFactoredStepCount(t *testing.T) {
	for _, tc := range []struct {
		dims []int
		want int
	}{
		{[]int{12, 12}, 8}, // (1+1+2)*2
		{[]int{16, 16}, 8}, // 4*2
		{[]int{6, 5}, 7},   // (1+2) + 4
		{[]int{9, 3}, 6},   // (2+2) + 2
	} {
		res, err := execute(schedule.Collect(topology.MustNew(tc.dims...), EmitFactored))
		if err != nil {
			t.Fatal(err)
		}
		if res.Measure.Steps != tc.want {
			t.Fatalf("%v: %d steps, want %d", tc.dims, res.Measure.Steps, tc.want)
		}
		if FactoredSteps(tc.dims) != tc.want {
			t.Fatalf("%v: FactoredSteps = %d, want %d", tc.dims, FactoredSteps(tc.dims), tc.want)
		}
	}
}

func TestFactoredEqualsLogTimeOnPow2(t *testing.T) {
	tor1 := topology.MustNew(16, 8)
	f, err := execute(schedule.Collect(tor1, EmitFactored))
	if err != nil {
		t.Fatal(err)
	}
	lt, err := execute(schedule.Collect(topology.MustNew(16, 8), EmitLogTime))
	if err != nil {
		t.Fatal(err)
	}
	if f.Measure != lt.Measure {
		t.Fatalf("pow2 shapes should match LogTime: %+v vs %+v", f.Measure, lt.Measure)
	}
}

func TestFactoredBeatsRingOnStartups(t *testing.T) {
	// On a 12x12 torus: 8 multiphase startups vs 22 ring startups.
	// The wormhole-serialized volume telescopes EXACTLY to the ring's
	// volume (sum over factors of N*P*(f-1)/2 = N(a-1)/2), so under
	// this model multiphase strictly dominates the stride-1 ring: same
	// effective bandwidth, fewer startups. Its remaining costs are the
	// link contention itself (it is not contention-free, unlike the
	// proposed schedule) and per-phase rearrangement.
	dims := []int{12, 12}
	f, err := execute(schedule.Collect(topology.MustNew(dims...), EmitFactored))
	if err != nil {
		t.Fatal(err)
	}
	ring := RingClosedForm(dims)
	if f.Measure.Steps >= ring.Steps {
		t.Fatalf("factored %d startups should beat ring %d", f.Measure.Steps, ring.Steps)
	}
	if f.Measure.Blocks != ring.Blocks {
		t.Fatalf("factored serialized volume %d should equal ring volume %d", f.Measure.Blocks, ring.Blocks)
	}
	// And against the proposed algorithm on its home turf, the
	// proposed schedule still wins completion under T3D params.
	p := costmodel.T3D(64)
	prop := costmodel.ProposedND(dims)
	if p.Completion(prop) >= p.Completion(f.Measure) {
		t.Fatalf("proposed %g should beat factored %g at ts=25",
			p.Completion(prop), p.Completion(f.Measure))
	}
}

func TestFactoredSize1Dimension(t *testing.T) {
	if _, err := execute(schedule.Collect(topology.MustNew(4, 1), EmitFactored)); err != nil {
		t.Fatal(err)
	}
}

package torusx

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"torusx/internal/baseline"
	"torusx/internal/block"
	"torusx/internal/exchange"
	"torusx/internal/obs"
	"torusx/internal/oracle"
	"torusx/internal/topology"
)

func TestAllToAllReport(t *testing.T) {
	tor, err := NewTorus(12, 8)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := AllToAll(tor)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Nodes != 96 || rep.Phases != 4 {
		t.Fatalf("report: %+v", rep)
	}
	want := Predict(12, 8)
	if rep.Measure != want {
		t.Fatalf("measured %+v != predicted %+v", rep.Measure, want)
	}
	if rep.Schedule() == nil {
		t.Fatal("schedule missing")
	}
	if !strings.Contains(rep.Summary(), "group-1") {
		t.Fatal("summary missing phases")
	}
	if c := rep.Completion(T3DParams(64)); c <= 0 {
		t.Fatalf("completion = %g", c)
	}
	// A Report no run returned has no program to re-plan.
	var zero Report
	if zero.Schedule() != nil || zero.Summary() != "(no schedule recorded)" {
		t.Fatalf("zero Report: schedule %v, summary %q", zero.Schedule(), zero.Summary())
	}
}

// TestAllToAllReportReplans: AllToAll's Report takes its phase count
// from the program's header and re-plans its schedule on first use;
// the phase count matches the schedule's, and Summary renders exactly
// what a Report holding the compiled schedule rendered (SHA-256 of the
// text, recorded from that form).
func TestAllToAllReportReplans(t *testing.T) {
	for _, c := range []struct {
		dims []int
		sum  string
	}{
		{[]int{4, 4}, "656edd15d9d6e6a5edc090a3f7562f326a6a54ee7196772d2d0559a6a57f13d2"},
		{[]int{4, 4, 4}, "26a7d5ef60bb804cfe07334c31bb4f02b07abbbd73c943e69d9bf43bcdd27b2c"},
	} {
		tor, _ := NewTorus(c.dims...)
		rep, err := AllToAll(tor)
		if err != nil {
			t.Fatalf("%v: %v", c.dims, err)
		}
		sc := rep.Schedule()
		if sc == nil || rep.Phases != len(sc.Phases) {
			t.Fatalf("%v: Phases %d, schedule %v", c.dims, rep.Phases, sc)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(rep.Summary()))); got != c.sum {
			t.Fatalf("%v: Summary() changed:\n%s", c.dims, rep.Summary())
		}
	}
}

// TestAllToAllMatchesSimulator holds AllToAll, which replays the
// compiled program, to the block-level simulator on the paper's shapes:
// same Measure, phase count, step count and non-contiguous sends.
func TestAllToAllMatchesSimulator(t *testing.T) {
	for _, dims := range [][]int{{4, 4}, {8, 8}, {12, 8}, {12, 12}, {16, 16}, {4, 4, 4}, {8, 8, 4}} {
		tor, _ := NewTorus(dims...)
		rep, err := AllToAll(tor)
		if err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
		sim, err := oracle.Run(tor, oracle.Options{CheckSteps: true})
		if err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
		c := sim.Counters
		want := &Report{
			Dims:  dims,
			Nodes: tor.Nodes(),
			Measure: Measure{Steps: c.Steps, Blocks: c.SumMaxBlocks, Hops: c.SumMaxHops,
				RearrangedBlocks: c.RearrangedBlocksMaxPerNode},
			Phases:             c.Phases,
			NonContiguousSends: c.NonContiguousSends,
		}
		if rep.Measure != want.Measure || rep.Phases != want.Phases ||
			rep.NonContiguousSends != want.NonContiguousSends ||
			rep.Schedule().NumSteps() != c.Steps {
			t.Fatalf("%v: AllToAll %+v (%d steps), simulator %+v (%d steps)",
				dims, rep, rep.Schedule().NumSteps(), want, sim.Counters.Steps)
		}
	}
}

func TestAllToAllRejectsBadShapes(t *testing.T) {
	tor, _ := NewTorus(10, 8)
	if _, err := AllToAll(tor); err == nil {
		t.Fatal("10x8 should be rejected")
	}
}

func TestAllToAllArbitrary(t *testing.T) {
	rep, err := AllToAllArbitrary(6, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RealNodes != 30 {
		t.Fatalf("RealNodes = %d", rep.RealNodes)
	}
	if got := fmt.Sprint(rep.PaddedDims); got != "[8 8]" {
		t.Fatalf("PaddedDims = %s", got)
	}
	if rep.HostSerializedSteps < rep.Measure.Steps {
		t.Fatal("serialized steps below padded steps")
	}
	if rep.MaxHostLoad < 1 {
		t.Fatalf("MaxHostLoad = %d", rep.MaxHostLoad)
	}
}

func TestCompareAlgorithms(t *testing.T) {
	prop, err := Compare(Proposed, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	dir, err := Compare(Direct, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := Compare(Ring, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !(prop.Steps < ring.Steps && ring.Steps < dir.Steps) {
		t.Fatalf("startup ordering violated: proposed %d, ring %d, direct %d",
			prop.Steps, ring.Steps, dir.Steps)
	}
	fac, err := Compare(Factored, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if fac.Steps != prop.Steps {
		// 8x8: factored needs 3+3 = 6 startups, same as proposed.
		t.Fatalf("factored startups = %d, want %d", fac.Steps, prop.Steps)
	}
	if dir.Blocks >= prop.Blocks {
		t.Fatal("direct should transmit fewer blocks along the critical node")
	}
	if _, err := Compare(Algorithm("bogus"), 8, 8); err == nil {
		t.Fatal("unknown algorithm should error")
	}
	if _, err := Compare(Proposed, 10, 10); err == nil {
		t.Fatal("proposed on 10x10 should error")
	}
	if _, err := Compare(Direct); err == nil {
		t.Fatal("no dims should error")
	}
}

func TestCompareMatchesClosedForms(t *testing.T) {
	// Ring is contention-free, so routing it through the shared
	// executor must not change its measure: it still matches the
	// closed form exactly.
	for _, dims := range [][]int{{4, 4}, {8, 8}, {12, 8}, {6, 5}, {4, 4, 4}} {
		ring, err := Compare(Ring, dims...)
		if err != nil {
			t.Fatal(err)
		}
		want := baseline.RingClosedForm(dims)
		if ring.Steps != want.Steps || ring.Blocks != want.Blocks || ring.Hops != want.Hops {
			t.Fatalf("%v: ring measured %+v, closed form %+v", dims, ring, want)
		}
	}
	// Proposed through the structural builder + executor matches the
	// paper's Table 1 closed form.
	prop, err := Compare(Proposed, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if prop != Predict(8, 8) {
		t.Fatalf("proposed measured %+v != predicted %+v", prop, Predict(8, 8))
	}
	// Direct now models wormhole link sharing: on 8x8 its Blocks are
	// 184 (the sum of per-step serialization factors), not the 63
	// single-block startups of the contention-blind accounting this
	// replaces. Documented in EXPERIMENTS.md.
	dir, err := Compare(Direct, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if dir.Steps != 63 || dir.Blocks != 184 {
		t.Fatalf("direct on 8x8 = %+v, want Steps=63 Blocks=184", dir)
	}
}

func TestCompareAllRouteThroughExecutor(t *testing.T) {
	// Every registered exchange algorithm must emit a schedule the
	// shared executor accepts — including its step checks on the
	// emitted IR — and Algorithms lists them all.
	algs := Algorithms()
	if len(algs) < 6 {
		t.Fatalf("Algorithms() = %v", algs)
	}
	for _, alg := range []Algorithm{Proposed, Direct, Ring, Factored, LogTime} {
		m, err := Compare(alg, 8, 8)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if m.Steps == 0 || m.Blocks == 0 {
			t.Fatalf("%s: empty measure %+v", alg, m)
		}
	}
}

func TestAllToAllSparse(t *testing.T) {
	tor, _ := NewTorus(8, 8)
	pairs := []Pair{{0, 5}, {5, 0}, {7, 7}, {63, 1}, {30, 31}}
	rep, err := AllToAllSparse(tor, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Measure.Steps == 0 {
		t.Fatal("steps should be charged")
	}
	// Validation paths.
	if _, err := AllToAllSparse(tor, []Pair{{0, 99}}); err == nil {
		t.Fatal("out-of-range pair should fail")
	}
	if _, err := AllToAllSparse(tor, []Pair{{0, 1}, {0, 1}}); err == nil {
		t.Fatal("duplicate pair should fail")
	}
	if rep, err = AllToAllSparse(tor, nil); err != nil || rep == nil {
		t.Fatalf("empty exchange should succeed: %v", err)
	}
}

// TestOutOfRangeNodesRejected passes node numbers outside [0, n) to
// every public entry point that takes one as an int. 1<<32+1 is the
// case a 32-bit NodeID would wrap to node 1 if converted before its
// range check.
func TestOutOfRangeNodesRejected(t *testing.T) {
	tor, err := NewTorus(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	arb := []int{6, 5}
	entries := []struct {
		name string
		n    int
		run  func(v int) error
	}{
		{"AllToAllSparse.Src", 64, func(v int) error {
			_, err := AllToAllSparse(tor, []Pair{{Src: v, Dst: 2}})
			return err
		}},
		{"AllToAllSparse.Dst", 64, func(v int) error {
			_, err := AllToAllSparse(tor, []Pair{{Src: 2, Dst: v}})
			return err
		}},
		{"AllToAllSparseArbitrary.Src", 30, func(v int) error {
			_, err := AllToAllSparseArbitrary(arb, []Pair{{Src: v, Dst: 2}})
			return err
		}},
		{"AllToAllSparseArbitrary.Dst", 30, func(v int) error {
			_, err := AllToAllSparseArbitrary(arb, []Pair{{Src: 2, Dst: v}})
			return err
		}},
		{"Scatter", 64, func(v int) error { _, err := Scatter(tor, v); return err }},
		{"Gather", 64, func(v int) error { _, err := Gather(tor, v); return err }},
		{"Broadcast", 64, func(v int) error { _, err := Broadcast(tor, v); return err }},
	}
	for _, e := range entries {
		for _, v := range []int{-1, e.n, 1 << 31, 1<<32 + 1} {
			if err := e.run(v); err == nil {
				t.Errorf("%s(%d) on %d nodes: nil error", e.name, v, e.n)
			}
		}
	}
}

func TestLowStartupParams(t *testing.T) {
	low := LowStartupParams(64)
	t3d := T3DParams(64)
	if low.Ts >= t3d.Ts {
		t.Fatalf("low startup %g should be below T3D %g", low.Ts, t3d.Ts)
	}
	m := Predict(16, 16)
	if low.Completion(m) >= t3d.Completion(m) {
		t.Fatal("lower startup must lower completion")
	}
}

func TestAllGatherAndArbitraryErrorPaths(t *testing.T) {
	if _, err := AllToAllArbitrary(5, 9); err == nil {
		t.Fatal("increasing dims should fail")
	}
	if _, err := AllToAllArbitrary(6); err == nil {
		t.Fatal("1D should fail")
	}
	if _, err := AllToAllArbitrary(9); err == nil {
		t.Fatal("1D should fail after padding too")
	}
	if _, err := AllToAllArbitrary(6, 0); err == nil {
		t.Fatal("zero-size dim should fail")
	}
}

// TestAllToAllArbitraryDelivers runs the virtual-node exchange on
// shapes that pad in one, two and three dimensions. Its replay verifies
// that every real node receives exactly the block of every real origin.
func TestAllToAllArbitraryDelivers(t *testing.T) {
	for _, dims := range [][]int{{6, 5}, {7, 7}, {10, 6}, {5, 4, 3}, {6, 6, 6}} {
		rep, err := AllToAllArbitrary(dims...)
		if err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
		wantReal := 1
		for _, d := range dims {
			wantReal *= d
		}
		if rep.RealNodes != wantReal || rep.Nodes != wantReal {
			t.Fatalf("%v: %d real nodes (report %d), want %d", dims, rep.RealNodes, rep.Nodes, wantReal)
		}
		if rep.Phases != len(dims)+2 {
			t.Fatalf("%v: Phases = %d, want %d", dims, rep.Phases, len(dims)+2)
		}
	}
}

func TestScheduleFor(t *testing.T) {
	tor, _ := NewTorus(16, 16)
	sc, err := ScheduleFor(tor)
	if err != nil {
		t.Fatal(err)
	}
	if sc.NumSteps() != 10 {
		t.Fatalf("steps = %d, want 10", sc.NumSteps())
	}
	want := Predict(16, 16)
	if sc.SumMaxBlocks() != want.Blocks || sc.SumMaxHops() != want.Hops {
		t.Fatalf("schedule costs %d/%d, want %d/%d",
			sc.SumMaxBlocks(), sc.SumMaxHops(), want.Blocks, want.Hops)
	}
	bad, _ := NewTorus(10, 10)
	if _, err := ScheduleFor(bad); err == nil {
		t.Fatal("invalid shape should fail")
	}
}

func TestPredictMatchesPaperExample(t *testing.T) {
	m := Predict(12, 12)
	if m.Steps != 8 || m.Blocks != 576 || m.Hops != 22 || m.RearrangedBlocks != 432 {
		t.Fatalf("Predict(12,12) = %+v", m)
	}
}

func TestExchangeData(t *testing.T) {
	text := func(i, j int) []byte { return []byte(fmt.Sprintf("payload %d->%d", i, j)) }
	for _, row := range []struct {
		name    string
		dims    []int
		payload func(i, j int) []byte
	}{
		{"4x4", []int{4, 4}, text},
		{"8x8", []int{8, 8}, text},
		{"12x8", []int{12, 8}, text},
		{"4x4x4", []int{4, 4, 4}, text},
		// Nil payloads are legal (zero-length data) and still route.
		{"nil-payloads", []int{4, 4}, func(int, int) []byte { return nil }},
	} {
		t.Run(row.name, func(t *testing.T) {
			tor, _ := NewTorus(row.dims...)
			n := tor.Nodes()
			data := make([][][]byte, n)
			for i := range data {
				data[i] = make([][]byte, n)
				for j := range data[i] {
					data[i][j] = row.payload(i, j)
				}
			}
			out, err := ExchangeData(tor, data)
			if err != nil {
				t.Fatal(err)
			}
			if len(out) != n {
				t.Fatalf("%d output rows, want %d", len(out), n)
			}
			for i := range out {
				if len(out[i]) != n {
					t.Fatalf("out[%d] has %d payloads, want %d", i, len(out[i]), n)
				}
				for j := range out[i] {
					if want := row.payload(j, i); !bytes.Equal(out[i][j], want) || (want == nil) != (out[i][j] == nil) {
						t.Fatalf("out[%d][%d] = %q, want %q", i, j, out[i][j], want)
					}
				}
			}
		})
	}
}

func TestExchangeDataValidation(t *testing.T) {
	tor, _ := NewTorus(4, 4)
	if _, err := ExchangeData(tor, nil); err == nil {
		t.Fatal("nil data should error")
	}
	bad := make([][][]byte, tor.Nodes())
	for i := range bad {
		bad[i] = make([][]byte, 3)
	}
	if _, err := ExchangeData(tor, bad); err == nil {
		t.Fatal("ragged data should error")
	}
	odd, _ := NewTorus(10, 4)
	square := make([][][]byte, odd.Nodes())
	for i := range square {
		square[i] = make([][]byte, odd.Nodes())
	}
	if _, err := ExchangeData(odd, square); err == nil {
		t.Fatal("10x4 torus should error")
	}
}

// fuzzShapes is the shape table indexed by the first fuzz-input byte.
// The first entries are native multiple-of-four tori; the rest have
// sides that are NOT multiples of four and therefore exercise the
// Section 6 virtual-node padding path end to end.
var fuzzShapes = [][]int{
	{4, 4}, {8, 4}, {4, 4, 4}, // native shapes
	{5, 4}, {6, 5}, {7, 5}, {9, 7}, // virtual-node 2D shapes
	{5, 4, 4}, {3, 2}, // virtual-node 3D and minimal shapes
}

// FuzzAllToAllSparse exercises the pair-validation and delivery paths
// of the sparse exchange with arbitrary pair lists over both native
// and virtual-node (Section 6) torus shapes. Input format: byte 0
// selects the shape from fuzzShapes (mod len); the rest is consumed
// pairwise as int8 (src, dst) pairs. In-range duplicate-free inputs
// must route and verify, everything else must be rejected with an
// error (never a panic or a silent misdelivery).
func FuzzAllToAllSparse(f *testing.F) {
	f.Add([]byte{})                    // shape 4x4, empty exchange
	f.Add([]byte{0, 0, 5, 5, 0, 7, 7}) // 4x4, valid sparse traffic
	f.Add([]byte{0, 0, 99})            // 4x4, destination out of range
	f.Add([]byte{0, 0, 1, 0, 1})       // 4x4, duplicate pair
	f.Add([]byte{3, 0, 5, 19, 0})      // 5x4 virtual: valid corner traffic
	f.Add([]byte{4, 0, 1, 0, 1})       // 6x5 virtual: duplicate pair
	f.Add([]byte{7, 0, 79})            // 5x4x4 virtual: valid 3D pair
	f.Add([]byte{8, 0, 251})           // 3x2 virtual: negative dst (int8)
	full := make([]byte, 0, 1+2*16*16)
	full = append(full, 0)
	for s := 0; s < 16; s++ {
		for d := 0; d < 16; d++ {
			full = append(full, byte(s), byte(d))
		}
	}
	f.Add(full) // the full 4x4 all-to-all matrix as a sparse instance
	f.Fuzz(func(t *testing.T, data []byte) {
		shape := 0
		if len(data) > 0 {
			shape = int(data[0]) % len(fuzzShapes)
			data = data[1:]
		}
		dims := fuzzShapes[shape]
		virtual := false
		n := 1
		for _, d := range dims {
			n *= d
			if d%4 != 0 {
				virtual = true
			}
		}
		pairs := make([]Pair, 0, len(data)/2)
		for i := 0; i+1 < len(data); i += 2 {
			// int8 so the fuzzer reaches negative values too.
			pairs = append(pairs, Pair{Src: int(int8(data[i])), Dst: int(int8(data[i+1]))})
		}
		seen := make(map[Pair]bool, len(pairs))
		valid := true
		for _, pr := range pairs {
			if pr.Src < 0 || pr.Src >= n || pr.Dst < 0 || pr.Dst >= n || seen[pr] {
				valid = false
				break
			}
			seen[pr] = true
		}
		var rep *Report
		var err error
		if virtual {
			rep, err = AllToAllSparseArbitrary(dims, pairs)
		} else {
			tor, terr := NewTorus(dims...)
			if terr != nil {
				t.Fatal(terr)
			}
			rep, err = AllToAllSparse(tor, pairs)
		}
		if valid && err != nil {
			t.Fatalf("valid pairs %v on %v rejected: %v", pairs, dims, err)
		}
		if !valid && err == nil {
			t.Fatalf("invalid pairs %v on %v accepted", pairs, dims)
		}
		if valid && rep == nil {
			t.Fatal("valid exchange returned nil report")
		}
		if valid {
			if want := simulatorMeasure(t, dims, pairs); rep.Measure != want {
				t.Fatalf("pairs %v on %v: measure %+v, simulator rules %+v", pairs, dims, rep.Measure, want)
			}
		}
	})
}

// simulatorMeasure runs pairs on the real torus dims through the
// block-level simulator on its padding (oracle.RunSparse) and returns
// the measure the compiled sparse program must report under the rules
// TestSparseProgramMatchesSimulator (internal/algorithm) holds it to:
// the simulator's blocks and hops, its steps less the empty ones, and
// per charged phase boundary the blocks the busiest node holds.
func simulatorMeasure(t *testing.T, dims []int, pairs []Pair) Measure {
	t.Helper()
	real := topology.MustNew(dims...)
	padded := topology.MustNew(exchange.PadDims(dims)...)
	held := make([]int, padded.Nodes())
	var blocks []block.Block
	for _, pr := range pairs {
		o := padded.ID(real.CoordOf(topology.NodeID(pr.Src)))
		blocks = append(blocks, block.Block{Origin: o, Dest: padded.ID(real.CoordOf(topology.NodeID(pr.Dst)))})
		held[o]++
	}
	res, err := oracle.RunSparse(padded, blocks, oracle.Options{CheckSteps: true})
	if err != nil {
		t.Fatalf("simulator: %v", err)
	}
	m := Measure{Steps: res.Counters.Steps, Blocks: res.Counters.SumMaxBlocks, Hops: res.Counters.SumMaxHops}
	for _, ph := range res.Schedule.Phases {
		if ph.Rearrange > 0 {
			m.RearrangedBlocks += (ph.Rearrange*slices.Max(held) + len(held) - 1) / len(held)
		}
		for _, st := range ph.Steps {
			if len(st.Transfers) == 0 {
				m.Steps--
			}
			for _, tr := range st.Transfers {
				held[tr.Src] -= tr.Blocks
				held[tr.Dst] += tr.Blocks
			}
		}
	}
	return m
}

// TestAllToAllArenaOutlivesGC checks the public path's memory contract:
// AllToAll on 16×16 builds the cached program's arena at most once (not
// at all if an earlier test already replayed the program), and a forced
// garbage collection between two calls does not take it — the second
// call creates no arena.
func TestAllToAllArenaOutlivesGC(t *testing.T) {
	tor, err := NewTorus(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	creates := func() int64 {
		n, ok := obs.Default().Snapshot().Counters["exec.arena.creates"]
		if !ok {
			t.Fatal("exec.arena.creates is not registered")
		}
		return n
	}
	start := creates()
	if _, err := AllToAll(tor); err != nil {
		t.Fatal(err)
	}
	first := creates()
	runtime.GC()
	debug.FreeOSMemory()
	if _, err := AllToAll(tor); err != nil {
		t.Fatal(err)
	}
	if got := creates(); got != first || first-start > 1 {
		t.Fatalf("exec.arena.creates: first call +%d, second call after GC +%d; want at most 1 and 0", first-start, got-first)
	}
	t.Logf("arenas created: %d by the first call, 0 by the second", first-start)
}

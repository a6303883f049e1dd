// The differential wall: every way to run a compiled program is held
// to one naive serial oracle (oracleRun, oracle_test.go).
//
// A wall row is a schedule plus a traffic matrix. checkRow crosses the
// row over program source (a fresh Compile, or that program encoded and
// decoded through the codec) × replay mode (serial, or parallel at each
// requested width, once with the production fan-out threshold and once
// with every step fanned out) × entry point (RunArena, ReplayInto),
// reusing one arena per program across all of them, and requires every
// outcome to match the oracle's Measure, MaxSharing and delivery matrix
// — same blocks, same per-node order. The rows are small enough that no
// step reaches the production threshold, so the fanned-out modes are
// what puts the sender buckets and barriers under the race detector.
// Schedules the oracle rejects must fail Compile with the same error.
// Compile also rejects intra-step forwarding, which the oracle accepts.
//
// The test functions only choose rows. They keep the names of the
// suites the wall replaced and split the rows between them, so no row
// is checked twice:
//
//	TestDescriptorDifferentialReplay        registry pairs, wide fabric set, dense traffic; hand-built ρ+ring and rank interleave
//	TestDifferentialRegistryAlgorithms      registry pairs, explicit all-to-all matrix
//	TestCompiledDifferentialRegistryAlgorithms  registry pairs, uniform sparse matrix
//	TestDecodedProgramDifferentialReplay    codec programs, permutation matrix
//	TestDifferentialSparseTraffic           proposed-sim@8x8, ring and hotspot matrices
//	TestCompiledSparseTraffic               sparse-capable pairs on a dragonfly
//	TestDifferentialWorkerCounts            dense rows at many parallel widths
//	TestCompiledDifferentialWorkerCounts    hotspot rows at many parallel widths
//	TestIntraStepForwardingVerdicts         Compile and CompileStream reject, the oracle accepts
//	TestCompiledDifferentialRejects, TestDifferentialRejectsSameSchedules  reject parity
package exec_test

import (
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"torusx/internal/algorithm"
	"torusx/internal/block"
	"torusx/internal/exec"
	"torusx/internal/oracle"
	"torusx/internal/schedule"
	"torusx/internal/topology"
	"torusx/internal/traffic"
)

// differentialShapes are the tori of the registry rows: square, cubic
// and rectangular.
var differentialShapes = [][]int{{8, 8}, {4, 4, 4}, {12, 8}}

// descriptorFabrics widens the registry rows to asymmetric and
// virtual-node (size-1 dimension) tori and dragonflies.
func descriptorFabrics() []topology.Fabric {
	return []topology.Fabric{
		topology.MustNew(8, 8),
		topology.MustNew(4, 4, 4),
		topology.MustNew(12, 8),
		topology.MustNew(5, 3),
		topology.MustNew(2, 1, 4),
		topology.MustNewDragonfly(2, 3),
		topology.MustNewDragonfly(3, 4),
	}
}

// defaultWidths are the parallel worker counts every row replays at:
// the default pool and a width that divides no transfer count.
var defaultWidths = []int{0, 3}

// wallRow is one schedule and the traffic matrix it must deliver.
type wallRow struct {
	name    string
	sc      *schedule.Schedule
	traffic []block.Block // nil: the full all-to-all matrix
}

// registryRow builds alg on fab and specializes it to the traffic
// generator gen: "" keeps the implicit all-to-all matrix, "full" passes
// the same matrix explicitly, and any other traffic spec prunes the
// schedule to that matrix. Structural (payload-free) schedules ignore
// gen. ok is false when the builder rejects the shape.
func registryRow(t *testing.T, name, alg string, fab topology.Fabric, gen string) (wallRow, bool) {
	t.Helper()
	b, err := algorithm.For(alg)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := b.BuildSchedule(fab)
	if err != nil {
		return wallRow{}, false // shape precondition, e.g. logtime on 12x8
	}
	row := wallRow{name: name, sc: sc}
	if gen == "" || !sc.HasPayload() {
		return row, true
	}
	if gen == "full" {
		row.traffic = traffic.Full(fab.Nodes()).Blocks()
		return row, true
	}
	m, err := traffic.ParseSpec(gen, fab.Nodes())
	if err != nil {
		t.Fatal(err)
	}
	if row.sc, err = traffic.Prune(sc, m); err != nil {
		t.Fatalf("%s: prune to %s: %v", name, gen, err)
	}
	row.traffic = m.Blocks()
	return row, true
}

// registryRows is registryRow over every algorithm the registry
// supports on each fabric, named by name(alg, fab).
func registryRows(t *testing.T, fabs []topology.Fabric, gen string, name func(alg string, fab topology.Fabric) string) []wallRow {
	t.Helper()
	var rows []wallRow
	for _, fab := range fabs {
		for _, alg := range algorithm.Supporting(fab) {
			if row, ok := registryRow(t, name(alg, fab), alg, fab, gen); ok {
				rows = append(rows, row)
			}
		}
	}
	return rows
}

func tori(shapes [][]int) []topology.Fabric {
	fabs := make([]topology.Fabric, len(shapes))
	for i, dims := range shapes {
		fabs[i] = topology.MustNew(dims...)
	}
	return fabs
}

func slashName(alg string, fab topology.Fabric) string { return alg + "/" + fab.String() }
func atName(alg string, fab topology.Fabric) string    { return alg + "@" + fab.String() }

// runWall checks every row as its own subtest.
func runWall(t *testing.T, rows []wallRow, widths []int) {
	t.Helper()
	if len(rows) == 0 {
		t.Fatal("no wall rows")
	}
	for _, r := range rows {
		r := r
		t.Run(r.name, func(t *testing.T) { checkRow(t, r, widths) })
	}
}

// checkRow holds one row's every (source × mode × entry point) outcome
// to the oracle.
func checkRow(t *testing.T, r wallRow, widths []int) {
	t.Helper()
	want, err := oracleRun(r.sc, r.traffic)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	pg, err := exec.Compile(r.sc, exec.Options{Traffic: r.traffic})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	checkProgram(t, r, want, pg, widths)
}

// checkProgram holds pg, compiled from r, to the oracle's outcome want
// over every (source × mode × entry point), as checkRow describes.
func checkProgram(t *testing.T, r wallRow, want *exec.Result, pg *exec.Program, widths []int) {
	t.Helper()
	if err := exec.CheckDescriptorPlan(pg, r.sc); err != nil {
		t.Fatalf("descriptor plan: %v", err)
	}
	const fp = 7
	enc, err := exec.EncodeProgram(pg, fp)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	dec, err := exec.DecodeProgram(enc, r.sc.Fabric, fp)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if pg.Replayable() != want.Replayed || dec.Replayable() != want.Replayed {
		t.Fatalf("Replayable fresh=%v decoded=%v, oracle replayed %v", pg.Replayable(), dec.Replayable(), want.Replayed)
	}
	if dec.BytesMoved() != pg.BytesMoved() {
		t.Fatalf("decoded BytesMoved %d, fresh %d", dec.BytesMoved(), pg.BytesMoved())
	}
	wantIDs := flatIDs(want.Buffers)

	type mode struct {
		label  string
		opt    exec.Options
		fanAll bool // lower the fan-out threshold to 0 for this mode
	}
	modes := []mode{{label: "serial", opt: exec.Options{Serial: true}}}
	for _, w := range widths {
		opt := exec.Options{Workers: w}
		modes = append(modes,
			mode{label: "parallel-" + strconv.Itoa(w), opt: opt},
			mode{label: "parallel-" + strconv.Itoa(w) + "-fanout", opt: opt, fanAll: true})
	}
	for _, src := range []struct {
		label string
		pg    *exec.Program
	}{{"fresh", pg}, {"decoded", dec}} {
		arena := src.pg.NewArena()
		var dst []int32
		if want.Replayed {
			dst = make([]int32, src.pg.DeliverySize())
		}
		for _, m := range modes {
			func() {
				label := src.label + "/" + m.label
				if m.fanAll {
					prev := exec.SetFanOutElems(0)
					defer exec.SetFanOutElems(prev)
				}
				res, err := src.pg.RunArena(arena, m.opt)
				if err != nil {
					t.Fatalf("%s/RunArena: %v", label, err)
				}
				if res.Measure != want.Measure || res.MaxSharing != want.MaxSharing || res.Replayed != want.Replayed {
					t.Fatalf("%s/RunArena: Measure %+v sharing %d replayed %v, oracle %+v %d %v", label,
						res.Measure, res.MaxSharing, res.Replayed, want.Measure, want.MaxSharing, want.Replayed)
				}
				if res.BytesMoved != src.pg.BytesMoved() {
					t.Fatalf("%s/RunArena: BytesMoved %d, program reports %d", label, res.BytesMoved, src.pg.BytesMoved())
				}
				sameBuffers(t, want.Buffers, res.Buffers)
				if !want.Replayed {
					return
				}
				for i := range dst {
					dst[i] = -1
				}
				if err := src.pg.ReplayInto(arena, dst, m.opt); err != nil {
					t.Fatalf("%s/ReplayInto: %v", label, err)
				}
				sameIDs(t, label+"/ReplayInto", wantIDs, dst)
			}()
		}
	}
}

// sameBuffers asserts two delivery matrices are identical: same nodes,
// same blocks, same order.
func sameBuffers(t *testing.T, want, got []*block.Buffer) {
	t.Helper()
	if (want == nil) != (got == nil) {
		t.Fatalf("want buffers nil=%v, got nil=%v", want == nil, got == nil)
	}
	if len(want) != len(got) {
		t.Fatalf("buffer count %d, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(want[i].View(), got[i].View()) {
			t.Fatalf("node %d delivery differs:\nwant: %v\ngot:  %v", i, want[i].View(), got[i].View())
		}
	}
}

// flatIDs renders a delivery matrix as the dense-id layout ReplayInto
// writes: node v's blocks at [DeliveryOffset(v), DeliveryOffset(v+1)).
func flatIDs(bufs []*block.Buffer) []int32 {
	n := len(bufs)
	var out []int32
	for _, b := range bufs {
		for _, blk := range b.View() {
			out = append(out, int32(int(blk.Origin)*n+int(blk.Dest)))
		}
	}
	return out
}

func sameIDs(t *testing.T, label string, want, got []int32) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d ids, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: id[%d] = %d, want %d", label, i, got[i], want[i])
		}
	}
}

func shapeName(alg string, dims []int) string {
	return slashName(alg, topology.MustNew(dims...))
}

// TestDescriptorDifferentialReplay: every registry (fabric, algorithm)
// pair on the wide fabric set with the implicit all-to-all matrix, plus
// two hand-built schedules: ρ+ring, whose self-transfers exercise the
// copy path no registry builder emits, and a node whose delivery rank
// order interleaves the three sources the delivery pass reads from.
// Runs under -race in CI.
func TestDescriptorDifferentialReplay(t *testing.T) {
	rows := registryRows(t, descriptorFabrics(), "", atName)
	rows = append(rows, wallRow{name: "rho-ring@8", sc: rhoRingSchedule(t)}, interleaveRow())
	runWall(t, rows, defaultWidths)
}

// interleaveRow is a 4-ring schedule after which node 2's deliveries,
// in rank order, are B[2,2] (never moved, read from its initial
// contents), B[1,2] (a last-hop transfer's, read from node 1's initial
// contents), B[0,2] (log-moved: it arrived with B[0,3], which moves on,
// so it is read from node 2's insert window) and B[3,2] (last-hop again,
// from node 3) — so node 2's delivery descriptors must switch region at
// every rank. Node 3 receives B[0,3] by a last-hop transfer out of node
// 2's insert window.
func interleaveRow() wallRow {
	b := func(o, d topology.NodeID) block.Block { return block.Block{Origin: o, Dest: d} }
	hop := func(src, dst topology.NodeID, dir topology.Direction, pay ...block.Block) schedule.Transfer {
		return schedule.Transfer{Src: src, Dst: dst, Dim: 0, Dir: dir, Hops: 1, Blocks: len(pay), Payload: block.IDs(pay, 4)}
	}
	sc := &schedule.Schedule{Fabric: topology.MustNew(4), Phases: []schedule.Phase{{
		Name: "interleave",
		Steps: []schedule.Step{
			{Transfers: []schedule.Transfer{hop(0, 1, topology.Pos, b(0, 2), b(0, 3)), hop(1, 2, topology.Pos, b(1, 2))}},
			{Transfers: []schedule.Transfer{hop(1, 2, topology.Pos, b(0, 2), b(0, 3))}},
			{Transfers: []schedule.Transfer{hop(2, 3, topology.Pos, b(0, 3)), hop(3, 2, topology.Neg, b(3, 2))}},
		},
	}}}
	return wallRow{name: "interleave@4", sc: sc, traffic: []block.Block{b(0, 2), b(0, 3), b(1, 2), b(2, 2), b(3, 2)}}
}

// TestDifferentialRegistryAlgorithms: every registry algorithm on the
// differential shapes, compiled against the all-to-all matrix passed
// explicitly — Compile's declared-traffic path and the codec's
// traffic-id table instead of their full-traffic shortcuts.
func TestDifferentialRegistryAlgorithms(t *testing.T) {
	runWall(t, registryRows(t, tori(differentialShapes), "full", slashName), defaultWidths)
}

// TestCompiledDifferentialRegistryAlgorithms: every registry algorithm
// on the differential shapes, pruned to a uniform sparse matrix.
func TestCompiledDifferentialRegistryAlgorithms(t *testing.T) {
	runWall(t, registryRows(t, tori(differentialShapes), "uniform:p=0.25,seed=1", slashName), defaultWidths)
}

// TestDecodedProgramDifferentialReplay: the codec tests' program set
// (codecCells) pruned to a permutation matrix.
func TestDecodedProgramDifferentialReplay(t *testing.T) {
	var rows []wallRow
	for _, c := range codecCells() {
		row, ok := registryRow(t, c.name, c.alg, c.fab, "perm:seed=1")
		if !ok {
			t.Fatalf("%s: builder rejected the shape", c.name)
		}
		rows = append(rows, row)
	}
	runWall(t, rows, defaultWidths)
}

// TestDifferentialSparseTraffic: the paper's algorithm pruned to the
// ring and hotspot generators' matrices.
func TestDifferentialSparseTraffic(t *testing.T) {
	fab := topology.MustNew(8, 8)
	for _, gen := range []string{"ring:radius=1", "hotspot:k=2,seed=1"} {
		row, ok := registryRow(t, "proposed-sim+"+gen, "proposed-sim", fab, gen)
		if !ok {
			t.Fatal("proposed-sim rejected 8x8")
		}
		checkRow(t, row, defaultWidths)
	}
}

// TestCompiledSparseTraffic: every sparse-capable algorithm on a
// dragonfly, pruned to a uniform sparse matrix.
func TestCompiledSparseTraffic(t *testing.T) {
	fab := topology.MustNewDragonfly(2, 4)
	for _, alg := range algorithm.SparseSupporting(fab) {
		row, ok := registryRow(t, alg, alg, fab, "uniform:p=0.25,seed=1")
		if !ok {
			t.Fatalf("%s rejected %s", alg, fab)
		}
		checkRow(t, row, defaultWidths)
	}
}

// workerWidths shake the parallel partitioning: widths that do not
// divide the transfer counts, and changes on one reused arena (which
// rebuild its cached sender buckets).
var workerWidths = []int{1, 2, 3, 5, 8, 64}

// TestDifferentialWorkerCounts: dense rows at every worker width.
func TestDifferentialWorkerCounts(t *testing.T) {
	fab := topology.MustNew(8, 8)
	for _, alg := range []string{"proposed-sim", "direct", "factored"} {
		row, _ := registryRow(t, alg, alg, fab, "")
		checkRow(t, row, workerWidths)
	}
}

// TestCompiledDifferentialWorkerCounts: hotspot rows, whose skewed
// senders load the buckets unevenly, at every worker width.
func TestCompiledDifferentialWorkerCounts(t *testing.T) {
	fab := topology.MustNew(8, 8)
	for _, alg := range []string{"proposed-sim", "direct", "factored"} {
		row, _ := registryRow(t, alg, alg, fab, "hotspot:k=2,seed=1")
		checkRow(t, row, workerWidths)
	}
}

// forwardMixedRow is the first schedule TestIntraStepForwardingVerdicts
// checks: node 0's move carries B[0,2] and B[0,1], and node 1 forwards
// B[0,2] in the same step together with B[1,2].
func forwardMixedRow() wallRow {
	b01, b02, b12 := block.Block{Origin: 0, Dest: 1}, block.Block{Origin: 0, Dest: 2}, block.Block{Origin: 1, Dest: 2}
	mixed := &schedule.Schedule{
		Fabric: topology.MustNew(4),
		Phases: []schedule.Phase{{
			Name: "p",
			Steps: []schedule.Step{{
				Transfers: []schedule.Transfer{
					{Src: 0, Dst: 1, Dim: 0, Dir: topology.Pos, Hops: 1, Blocks: 2, Payload: block.IDs([]block.Block{b02, b01}, 4)},
					{Src: 1, Dst: 2, Dim: 0, Dir: topology.Pos, Hops: 1, Blocks: 2, Payload: block.IDs([]block.Block{b12, b02}, 4)},
				},
			}},
		}},
	}
	return wallRow{name: "forward-mixed", sc: mixed, traffic: []block.Block{b01, b02, b12}}
}

// TestIntraStepForwardingVerdicts pins the verdicts on schedules where
// a transfer forwards a block delivered earlier in the same step: node
// 0 sends B[0,2] to node 1, and node 1 forwards it to node 2 within one
// step. A step is a synchronous round, in which a block that arrives
// leaves no earlier than the next step, so Compile rejects both, whole
// and streamed one step per batch, with one error naming the phase,
// step, node and block. The oracle, a serial walk that moves each
// transfer before the next, accepts them and delivers every block; that
// divergence is deliberate, as no builder emits such a schedule and the
// replay engines need not execute one.
func TestIntraStepForwardingVerdicts(t *testing.T) {
	b02 := block.Block{Origin: 0, Dest: 2}
	single := wallRow{name: "forward", traffic: []block.Block{b02}, sc: &schedule.Schedule{
		Fabric: topology.MustNew(4),
		Phases: []schedule.Phase{{
			Name: "p",
			Steps: []schedule.Step{{
				Transfers: []schedule.Transfer{
					{Src: 0, Dst: 1, Blocks: 1, Payload: []int32{b02.ID(4)}},
					{Src: 1, Dst: 2, Blocks: 1, Payload: []int32{b02.ID(4)}},
				},
			}},
		}},
	}}
	const want = `exec: phase "p" step 0: node 1 forwards B[0,2] within the step that delivered it`
	for _, r := range []wallRow{forwardMixedRow(), single} {
		t.Run(r.name, func(t *testing.T) {
			if _, err := oracleRun(r.sc, r.traffic); err != nil {
				t.Fatalf("oracle: %v", err)
			}
			opt := exec.Options{Traffic: r.traffic}
			if _, err := exec.Compile(r.sc, opt); err == nil || err.Error() != want {
				t.Fatalf("Compile: error %v, want %q", err, want)
			}
			restore := exec.StreamOneStep()
			defer restore()
			if _, err := exec.CompileStream(r.sc.Fabric, emitter(cloneSchedule(r.sc)), opt); err == nil || err.Error() != want {
				t.Fatalf("CompileStream: error %v, want %q", err, want)
			}
		})
	}
}

// structuralRejects are schedules that break the one-port model or
// wormhole contention-freedom.
func structuralRejects() []struct {
	name string
	sc   *schedule.Schedule
} {
	tor := topology.MustNew(4, 4)
	return []struct {
		name string
		sc   *schedule.Schedule
	}{
		{"one-port", &schedule.Schedule{Fabric: tor, Phases: []schedule.Phase{{
			Name: "bad",
			Steps: []schedule.Step{{Transfers: []schedule.Transfer{
				{Src: 0, Dst: 1, Dim: 0, Dir: topology.Pos, Hops: 1, Blocks: 1},
				{Src: 0, Dst: 2, Dim: 1, Dir: topology.Pos, Hops: 1, Blocks: 1},
			}}},
		}}}},
		// Nodes 0, 4, 8, 12 form a dim-0 row of the 4x4 torus; the two
		// overlapping 2-hop sends share the link out of node 4.
		{"contention", &schedule.Schedule{Fabric: tor, Phases: []schedule.Phase{{
			Name: "bad",
			Steps: []schedule.Step{{Transfers: []schedule.Transfer{
				{Src: 0, Dst: 8, Dim: 0, Dir: topology.Pos, Hops: 2, Blocks: 1},
				{Src: 4, Dst: 12, Dim: 0, Dir: topology.Pos, Hops: 2, Blocks: 1},
			}}},
		}}}},
	}
}

// formatLimitRejects are schedules Compile rejects because the program
// format cannot hold them: more
// than 255 route legs, a leg of more than 65,535 hops or on a dimension
// above 255, or a block count above 2^32-1. Each is one transfer on a
// 4x4 torus whose route ends where it starts.
func formatLimitRejects() []struct {
	name string
	tr   schedule.Transfer
} {
	legs := make([]schedule.Seg, 256)
	for i := range legs {
		legs[i] = schedule.Seg{Dim: 0, Dir: topology.Pos, Hops: 4}
	}
	return []struct {
		name string
		tr   schedule.Transfer
	}{
		{"route-legs", schedule.Transfer{Src: 0, Dst: 0, Dim: 0, Dir: topology.Pos, Hops: 4, Blocks: 1, Segs: legs}},
		{"leg-hops", schedule.Transfer{Src: 0, Dst: 0, Dim: 0, Dir: topology.Pos, Hops: 1 << 16, Blocks: 1}},
		{"leg-dimension", schedule.Transfer{Src: 0, Dst: 0, Dim: 0, Dir: topology.Pos, Hops: 0, Blocks: 1,
			Segs: []schedule.Seg{{Dim: 0, Dir: topology.Pos, Hops: 4}, {Dim: 256, Dir: topology.Pos, Hops: 0}}}},
		{"block-count", schedule.Transfer{Src: 0, Dst: 1, Dim: 1, Dir: topology.Pos, Hops: 1, Blocks: math.MaxInt}},
	}
}

// TestCompiledDifferentialRejects: one-port and contention violations
// are rejected by the oracle and by Compile with the same error (both
// reuse the schedule package's error types and check order). A
// schedule past the program format's limits fails Compile, naming the
// transfer.
func TestCompiledDifferentialRejects(t *testing.T) {
	tor := topology.MustNew(4, 4)
	for _, tc := range formatLimitRejects() {
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "block-count" && uint64(math.MaxInt) <= math.MaxUint32 {
				t.Skip("every int block count fits the program format on this platform")
			}
			sc := &schedule.Schedule{Fabric: tor, Phases: []schedule.Phase{{
				Name: "limit", Steps: []schedule.Step{{Transfers: []schedule.Transfer{tc.tr}}},
			}}}
			_, err := exec.Compile(sc, exec.Options{})
			if err == nil || !strings.Contains(err.Error(), "program format") || !strings.Contains(err.Error(), tc.tr.String()) {
				t.Fatalf("Compile err = %v, want a program format error naming %v", err, tc.tr)
			}
		})
	}
	for _, tc := range structuralRejects() {
		t.Run(tc.name, func(t *testing.T) {
			_, refErr := oracleRun(tc.sc, nil)
			_, cErr := exec.Compile(tc.sc, exec.Options{})
			if refErr == nil || cErr == nil {
				t.Fatalf("accepted: oracle=%v compiled=%v", refErr, cErr)
			}
			if refErr.Error() != cErr.Error() {
				t.Errorf("error mismatch:\noracle:   %v\ncompiled: %v", refErr, cErr)
			}
		})
	}
}

// TestDifferentialRejectsSameSchedules: replay-level violations — a
// payload that contradicts its declared block count, a transmitted
// block the sender does not hold, malformed or undelivered traffic —
// are rejected by both the oracle and Compile, with the same message
// wherever both run the same check.
func TestDifferentialRejectsSameSchedules(t *testing.T) {
	tor := topology.MustNew(4, 4)
	dst := tor.MoveID(0, 0, 1)
	n := tor.Nodes()
	hopIDs := func(declared int, pay ...int32) *schedule.Schedule {
		return &schedule.Schedule{Fabric: tor, Phases: []schedule.Phase{{
			Name: "hop",
			Steps: []schedule.Step{{Transfers: []schedule.Transfer{{
				Src: 0, Dst: dst, Dim: 0, Dir: topology.Pos, Hops: 1,
				Blocks: declared, Payload: pay,
			}}}},
		}}}
	}
	hop := func(declared int, pay ...block.Block) *schedule.Schedule {
		return hopIDs(declared, block.IDs(pay, n)...)
	}
	b0 := block.Block{Origin: 0, Dest: dst}
	// Node 0 keeps B[0,dst] through a self-transfer while B[dst,0] stays
	// put: every node holds its share's count, but not its blocks.
	kept := &schedule.Schedule{Fabric: tor, Phases: []schedule.Phase{{
		Name: "keep",
		Steps: []schedule.Step{{Transfers: []schedule.Transfer{{
			Src: 0, Dst: 0, Dim: 0, Dir: topology.Pos, Blocks: 1, Payload: []int32{b0.ID(n)},
		}}}},
	}}}
	for _, tc := range []struct {
		name     string
		sc       *schedule.Schedule
		traffic  []block.Block
		sameText bool
	}{
		{"blocks-mismatch", hop(2, b0), []block.Block{b0}, true},
		{"not-held", hop(1, block.Block{Origin: 3, Dest: dst}), []block.Block{b0}, true},
		{"undelivered", hop(1, b0), []block.Block{b0, {Origin: 0, Dest: tor.MoveID(0, 0, 2)}}, false},
		{"misdelivered", kept, []block.Block{b0, {Origin: dst, Dest: 0}}, false},
		{"out-of-range", hop(1, b0), []block.Block{{Origin: 99, Dest: 0}}, true},
		{"duplicate", hop(1, b0), []block.Block{b0, b0}, true},
		// Payload ids outside [0, n²) name no block; n² would alias
		// B[1,0] if it were taken apart.
		{"payload-id-negative", hopIDs(1, -1), []block.Block{b0}, true},
		{"payload-id-n2", hopIDs(1, int32(n*n)), []block.Block{b0}, true},
	} {
		_, refErr := oracleRun(tc.sc, tc.traffic)
		_, cErr := exec.Compile(tc.sc, exec.Options{Traffic: tc.traffic})
		if refErr == nil || cErr == nil {
			t.Fatalf("%s accepted: oracle=%v compiled=%v", tc.name, refErr, cErr)
		}
		if tc.sameText && refErr.Error() != cErr.Error() {
			t.Errorf("%s error mismatch:\noracle:   %v\ncompiled: %v", tc.name, refErr, cErr)
		}
	}
}

// rhoRingSchedule hand-builds the schedule shape the registry's
// builders only annotate: an explicit ρ phase of multi-block
// self-transfers (every node reverses its buffer — a pure intra-node
// permutation, one negative-stride descriptor) followed by a ring
// exchange that forwards the permuted blocks to their destinations.
func rhoRingSchedule(t *testing.T) *schedule.Schedule {
	t.Helper()
	tor := topology.MustNew(8)
	n := tor.Nodes()
	bufs := oracle.Initial(tor)
	sc := &schedule.Schedule{Fabric: tor}

	rho := schedule.Phase{Name: "rho"}
	st := schedule.Step{}
	for i := 0; i < n; i++ {
		taken, _ := bufs[i].TakeIf(func(block.Block) bool { return true })
		rev := make([]block.Block, len(taken))
		for j, b := range taken {
			rev[len(taken)-1-j] = b
		}
		bufs[i].Add(rev...)
		st.Transfers = append(st.Transfers, schedule.Transfer{
			Src: topology.NodeID(i), Dst: topology.NodeID(i),
			Dim: 0, Dir: topology.Pos, Hops: 0,
			Blocks: len(rev), Payload: block.IDs(rev, n),
		})
	}
	rho.Steps = append(rho.Steps, st)
	sc.Phases = append(sc.Phases, rho)

	ring := schedule.Phase{Name: "ring"}
	for k := 0; k < n-1; k++ {
		st := schedule.Step{}
		moved := make([][]block.Block, n)
		for i := 0; i < n; i++ {
			taken, _ := bufs[i].TakeIf(func(b block.Block) bool { return int(b.Dest) != i })
			if len(taken) == 0 {
				continue
			}
			dst := topology.NodeID((i + 1) % n)
			moved[dst] = taken
			st.Transfers = append(st.Transfers, schedule.Transfer{
				Src: topology.NodeID(i), Dst: dst,
				Dim: 0, Dir: topology.Pos, Hops: 1,
				Blocks: len(taken), Payload: block.IDs(taken, n),
			})
		}
		for j, bs := range moved {
			if bs != nil {
				bufs[j].Add(bs...)
			}
		}
		if len(st.Transfers) > 0 {
			ring.Steps = append(ring.Steps, st)
		}
	}
	sc.Phases = append(sc.Phases, ring)
	if err := oracle.Check(sc); err != nil {
		t.Fatalf("rho-ring schedule invalid: %v", err)
	}
	return sc
}

package exec_test

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"torusx/internal/algorithm"
	"torusx/internal/block"
	"torusx/internal/costmodel"
	"torusx/internal/exec"
	"torusx/internal/schedule"
	"torusx/internal/topology"
)

// streamRow is one input of the streamed-against-whole differential: a
// schedule, the emitter that streams it, and the compile options.
type streamRow struct {
	name string
	sc   *schedule.Schedule
	emit func(schedule.Sink) error
	opt  exec.Options
}

// compiledForm is everything a compile decides: the program file (its
// bytes carry the digest), the cost report, or the error.
type compiledForm struct {
	file       []byte
	measure    costmodel.Measure
	maxSharing int
	err        string
}

func compiledOf(t *testing.T, compile func() (*exec.Program, error)) compiledForm {
	t.Helper()
	pg, err := compile()
	if err != nil {
		return compiledForm{err: err.Error()}
	}
	file, err := exec.EncodeProgram(pg, 0)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return compiledForm{file: file, measure: pg.Measure(), maxSharing: pg.MaxSharing()}
}

func sameForm(t *testing.T, label string, want, got compiledForm) {
	t.Helper()
	if want.err != got.err {
		t.Fatalf("%s: error %q, whole compile %q", label, got.err, want.err)
	}
	if !bytes.Equal(want.file, got.file) {
		t.Fatalf("%s: program file differs from the whole compile's (%d and %d bytes)", label, len(got.file), len(want.file))
	}
	if want.measure != got.measure || want.maxSharing != got.maxSharing {
		t.Fatalf("%s: Measure %+v sharing %d, whole compile %+v %d", label, got.measure, got.maxSharing, want.measure, want.maxSharing)
	}
}

// checkStreamRow compiles r from its stream, in production batches and
// one step per batch, and through Compile on the whole schedule, and
// requires the same outcome.
func checkStreamRow(t *testing.T, r streamRow) {
	t.Helper()
	want := compiledOf(t, func() (*exec.Program, error) { return exec.Compile(r.sc, r.opt) })
	stream := func() (*exec.Program, error) { return exec.CompileStream(r.sc.Fabric, r.emit, r.opt) }
	sameForm(t, "streamed", want, compiledOf(t, stream))
	restore := exec.StreamOneStep()
	defer restore()
	sameForm(t, "one step per batch", want, compiledOf(t, stream))
}

// emitter returns the emitter of a schedule that exists whole: it sends
// sc's phases and steps to a sink in order, stopping at the first error
// a Step returns. The sink owns every step it takes and may rewrite its
// payload ids in place (see schedule.Sink), so stream only a schedule
// nobody reads afterwards.
func emitter(sc *schedule.Schedule) func(schedule.Sink) error {
	return func(sink schedule.Sink) error {
		if sc.Lattice > 0 {
			sink.Lattice(sc.Lattice)
		}
		for pi := range sc.Phases {
			ph := &sc.Phases[pi]
			sink.Phase(ph.Name, ph.Rearrange)
			for _, s := range ph.Steps {
				if err := sink.Step(s); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

// wholeRow streams a schedule that exists whole. Each stream emits a
// deep copy, since a streamed compile may rewrite the payload ids it
// takes, and the row's schedule is read again.
func wholeRow(name string, sc *schedule.Schedule, opt exec.Options) streamRow {
	return streamRow{name: name, sc: sc, emit: func(s schedule.Sink) error { return emitter(cloneSchedule(sc))(s) }, opt: opt}
}

// TestStreamedCompileDifferentialRegistry: every registry cell on the
// differential's shapes compiles to the same program from the builder's
// stream as through Compile(BuildSchedule()).
func TestStreamedCompileDifferentialRegistry(t *testing.T) {
	fabs := []topology.Fabric{
		topology.MustNew(4, 4),
		topology.MustNew(8, 8),
		topology.MustNew(16, 16),
		topology.MustNew(4, 4, 4),
		topology.MustNewDragonfly(2, 3),
	}
	for _, fab := range fabs {
		for _, alg := range algorithm.Supporting(fab) {
			b, err := algorithm.For(alg)
			if err != nil {
				t.Fatal(err)
			}
			sc, err := b.BuildSchedule(fab)
			if err != nil {
				continue // shape precondition
			}
			fab := fab
			t.Run(alg+"@"+fab.String(), func(t *testing.T) {
				checkStreamRow(t, streamRow{
					sc:   sc,
					emit: func(s schedule.Sink) error { return b.EmitSchedule(fab, s) },
				})
			})
		}
	}
}

// TestStreamedCompileDifferentialWall: every row of the differential
// wall and every schedule it rejects compiles, or fails, the same from
// its stream as whole — the traffic-matrix rows, the hand-built rows,
// the intra-step forwards, the one-port, contention, format-limit and
// replay-level rejects — and so do schedules that break rules of
// several classes at different steps, where the class order of Compile
// decides the error.
func TestStreamedCompileDifferentialWall(t *testing.T) {
	var rows []streamRow
	add := func(wr []wallRow) {
		for _, r := range wr {
			rows = append(rows, wholeRow(r.name, r.sc, exec.Options{Traffic: r.traffic}))
		}
	}
	add(registryRows(t, descriptorFabrics(), "", atName))
	add(registryRows(t, tori(differentialShapes), "full", slashName))
	add(registryRows(t, tori(differentialShapes), "uniform:p=0.25,seed=1", slashName))
	for _, c := range codecCells() {
		if row, ok := registryRow(t, c.name, c.alg, c.fab, "perm:seed=1"); ok {
			add([]wallRow{row})
		}
	}
	for _, gen := range []string{"ring:radius=1", "hotspot:k=2,seed=1"} {
		if row, ok := registryRow(t, "proposed-sim+"+gen, "proposed-sim", topology.MustNew(8, 8), gen); ok {
			add([]wallRow{row})
		}
	}
	dfly := topology.MustNewDragonfly(2, 4)
	for _, alg := range algorithm.SparseSupporting(dfly) {
		if row, ok := registryRow(t, alg+"+sparse", alg, dfly, "uniform:p=0.25,seed=1"); ok {
			add([]wallRow{row})
		}
	}
	add([]wallRow{{name: "rho-ring@8", sc: rhoRingSchedule(t)}, interleaveRow(), forwardMixedRow()})

	tor := topology.MustNew(4, 4)
	for _, tc := range structuralRejects() {
		rows = append(rows, wholeRow(tc.name, tc.sc, exec.Options{}))
	}
	for _, tc := range formatLimitRejects() {
		if tc.name == "block-count" && uint64(math.MaxInt) <= math.MaxUint32 {
			continue
		}
		sc := &schedule.Schedule{Fabric: tor, Phases: []schedule.Phase{{
			Name: "limit", Steps: []schedule.Step{{Transfers: []schedule.Transfer{tc.tr}}},
		}}}
		rows = append(rows, wholeRow(tc.name, sc, exec.Options{}))
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) { checkStreamRow(t, r) })
	}
	for _, c := range append(classRows(tor), fullPayloadRows(tor)...) {
		t.Run(c.name, func(t *testing.T) {
			_, err := exec.Compile(c.sc, c.opt)
			if (err == nil) != (c.want == "") || err != nil && !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Compile err = %v, want %q", err, c.want)
			}
			checkStreamRow(t, c.streamRow)
		})
	}
}

// classRow is a schedule breaking rules of several classes and the
// text of the error that must win ("" for none).
type classRow struct {
	streamRow
	want string
}

// classRows are 4x4 schedules that break rules of several classes at
// different steps, each with the error Compile must report.
func classRows(tor *topology.Torus) []classRow {
	n := tor.Nodes()
	right, down := tor.MoveID(0, 0, 1), tor.MoveID(0, 1, 1)
	id := func(o, d topology.NodeID) int32 { return block.Block{Origin: o, Dest: d}.ID(n) }
	hop := func(src, dst topology.NodeID, dim int, blocks int, pay ...int32) schedule.Transfer {
		return schedule.Transfer{Src: src, Dst: dst, Dim: dim, Dir: topology.Pos, Hops: 1, Blocks: blocks, Payload: pay}
	}
	send := func(trs ...schedule.Transfer) schedule.Step { return schedule.Step{Transfers: trs} }
	notHeld := send(hop(0, right, 0, 1, id(3, right)))
	onePort := send(hop(0, right, 0, 1, id(0, right)), hop(0, down, 1, 1, id(0, down)))
	limit := send(hop(0, right, 0, -1))
	noPayload := send(hop(0, right, 0, 1))
	deliver := send(hop(0, right, 0, 1, id(0, right)))
	sc := func(steps ...schedule.Step) *schedule.Schedule {
		return &schedule.Schedule{Fabric: tor, Phases: []schedule.Phase{
			{Name: "a", Steps: steps[:1]},
			{Name: "b", Steps: steps[1:]},
		}}
	}
	return []classRow{
		// A replay error at step 0 loses to a one-port error at step 1.
		{wholeRow("replay-then-lowering", sc(notHeld, onePort), exec.Options{}), "one-port violation"},
		// A one-port error at step 0 loses to a format limit at step 2.
		{wholeRow("lowering-then-limit", sc(onePort, deliver, limit), exec.Options{}), `phase "b" step 1: transfer`},
		// A step without payloads is held to its declared blocks once a
		// later step makes the schedule replayable, at its own step.
		{wholeRow("pending-coherence", sc(noPayload, onePort, deliver), exec.Options{}), `phase "a" step 0 transfer`},
		{wholeRow("measure-only", sc(noPayload, noPayload), exec.Options{}), ""},
		// A duplicate traffic block loses to a later one-port error.
		{wholeRow("traffic-then-lowering", sc(deliver, onePort),
			exec.Options{Traffic: []block.Block{{Origin: 0, Dest: right}, {Origin: 0, Dest: right}}}), "one-port violation"},
		// The sender-holds error wins over an undelivered block.
		{wholeRow("replay-then-delivery", sc(deliver, notHeld),
			exec.Options{Traffic: []block.Block{{Origin: 0, Dest: right}, {Origin: 0, Dest: down}}}), "does not hold"},
	}
}

// fullPayloadRows are 4x4 schedules whose payload ids total exactly
// 2^14, a power of two a lowered table's size can land on, followed by
// a step with nothing to carry: an empty step, which compiles, and a
// transfer that declares a block but carries none, which must fail the
// payload coherence check at that step rather than crash the lowering.
func fullPayloadRows(tor *topology.Torus) []classRow {
	n := tor.Nodes()
	right, down := tor.MoveID(0, 0, 1), tor.MoveID(0, 1, 1)
	id := func(o, d topology.NodeID) int32 { return block.Block{Origin: o, Dest: d}.ID(n) }
	hop := func(src, dst topology.NodeID, dim int, dir topology.Direction, pay ...int32) schedule.Transfer {
		return schedule.Transfer{Src: src, Dst: dst, Dim: dim, Dir: dir, Hops: 1, Blocks: len(pay), Payload: pay}
	}
	traffic := []block.Block{{Origin: 0, Dest: right}, {Origin: right, Dest: 0}, {Origin: 0, Dest: down}, {Origin: down, Dest: 0}}
	// 0 and down swap their blocks once (2 ids), then 0 and right swap
	// theirs 8,191 times (16,382 ids): an odd count, so every block
	// ends at its destination.
	steps := []schedule.Step{{Transfers: []schedule.Transfer{
		hop(0, down, 1, topology.Pos, id(0, down)), hop(down, 0, 1, topology.Neg, id(down, 0)),
	}}}
	for k := 0; k < 8191; k++ {
		at0, atRight := id(0, right), id(right, 0)
		if k%2 == 1 {
			at0, atRight = atRight, at0
		}
		steps = append(steps, schedule.Step{Transfers: []schedule.Transfer{
			hop(0, right, 0, topology.Pos, at0), hop(right, 0, 0, topology.Neg, atRight),
		}})
	}
	row := func(name string, last schedule.Step, want string) classRow {
		sc := &schedule.Schedule{Fabric: tor, Phases: []schedule.Phase{{
			Name: "swap", Steps: append(slices.Clip(steps), last),
		}}}
		return classRow{wholeRow(name, sc, exec.Options{Traffic: traffic}), want}
	}
	return []classRow{
		row("full-payload+empty-step", schedule.Step{}, ""),
		row("full-payload+payload-missing", schedule.Step{Transfers: []schedule.Transfer{{
			Src: 0, Dst: right, Dim: 0, Dir: topology.Pos, Hops: 1, Blocks: 1,
		}}}, `phase "swap" step 8192 transfer`),
	}
}

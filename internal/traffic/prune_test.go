package traffic

import (
	"strings"
	"testing"

	"torusx/internal/baseline"
	"torusx/internal/block"
	"torusx/internal/exec"
	"torusx/internal/oracle"
	"torusx/internal/schedule"
	"torusx/internal/topology"
)

// pruneAndReplay prunes the full schedule to m and proves delivery by
// compiling with the matrix as the declared traffic and replaying on
// both executor paths.
func pruneAndReplay(t *testing.T, sc *schedule.Schedule, m Matrix) *exec.Program {
	t.Helper()
	pruned, err := Prune(sc, m)
	if err != nil {
		t.Fatalf("prune: %v", err)
	}
	if err := oracle.Check(pruned); err != nil {
		t.Fatalf("pruned schedule fails validity checks: %v", err)
	}
	pg, err := exec.Compile(pruned, exec.Options{Traffic: m.Blocks()})
	if err != nil {
		t.Fatalf("compile of pruned schedule: %v", err)
	}
	for _, serial := range []bool{true, false} {
		if _, err := pg.Run(exec.Options{Serial: serial}); err != nil {
			t.Fatalf("replay (serial=%v): %v", serial, err)
		}
	}
	return pg
}

// direct collects the direct exchange on tor.
func direct(t *testing.T, tor *topology.Torus) *schedule.Schedule {
	t.Helper()
	sc, err := schedule.Collect(tor, baseline.EmitDirect)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestPruneDirectToUniform(t *testing.T) {
	tor := topology.MustNew(4, 4)
	full := direct(t, tor)
	m := Uniform(tor.Nodes(), 0.3, 11)
	pruned, err := Prune(full, m)
	if err != nil {
		t.Fatal(err)
	}
	// Dead transfers gone: total payload equals exactly the non-self
	// matrix entries (direct's full schedule never moves self blocks).
	carried := 0
	pruned.EachStep(func(_ *schedule.Phase, _ int, s *schedule.Step) {
		for _, tr := range s.Transfers {
			carried += len(tr.Payload)
			if len(tr.Payload) != tr.Blocks {
				t.Fatalf("pruned transfer %v declares %d blocks, carries %d", tr, tr.Blocks, len(tr.Payload))
			}
		}
	})
	if carried != m.NonSelf() {
		t.Fatalf("pruned schedule carries %d blocks, want the matrix's %d non-self blocks", carried, m.NonSelf())
	}
	// A direct round only dies if all n of its blocks are excluded, so
	// count transfers, not steps: a 30% matrix must kill most of them.
	transfers := func(sc *schedule.Schedule) int {
		cnt := 0
		sc.EachStep(func(_ *schedule.Phase, _ int, s *schedule.Step) { cnt += len(s.Transfers) })
		return cnt
	}
	if pt, ft := transfers(pruned), transfers(full); pt >= ft {
		t.Fatalf("pruning a 30%% matrix dropped no transfers: %d vs %d", pt, ft)
	}
	pruneAndReplay(t, full, m)
}

func TestPruneEveryTorusBaseline(t *testing.T) {
	tor := topology.MustNew(4, 4)
	builders := map[string]func(*topology.Torus, schedule.Sink) error{
		"direct":   baseline.EmitDirect,
		"ring":     baseline.EmitRing,
		"factored": baseline.EmitFactored,
		"logtime":  baseline.EmitLogTime,
	}
	matrices := map[string]Matrix{
		"uniform": Uniform(tor.Nodes(), 0.2, 3),
		"ring":    Ring(tor.Nodes(), 1),
		"hotspot": Hotspot(tor.Nodes(), 2, 5),
		"perm":    Permutation(tor.Nodes(), 7),
	}
	for bname, emit := range builders {
		sc, err := schedule.Collect(tor, emit)
		if err != nil {
			t.Fatalf("%s: %v", bname, err)
		}
		for mname, m := range matrices {
			t.Run(bname+"/"+mname, func(t *testing.T) {
				pruneAndReplay(t, sc, m)
			})
		}
	}
}

func TestPruneEmptyMatrix(t *testing.T) {
	tor := topology.MustNew(4, 4)
	m := mustNew(t, tor.Nodes(), nil)
	pruned, err := Prune(direct(t, tor), m)
	if err != nil {
		t.Fatal(err)
	}
	if len(pruned.Phases) != 0 || pruned.NumSteps() != 0 {
		t.Fatalf("empty matrix left %d phases / %d steps", len(pruned.Phases), pruned.NumSteps())
	}
	pg, err := exec.Compile(pruned, exec.Options{Traffic: m.Blocks()})
	if err != nil {
		t.Fatal(err)
	}
	if pg.Replayable() {
		t.Fatal("empty schedule claims to be replayable")
	}
}

func TestPruneSelfOnlyMatrix(t *testing.T) {
	// Self blocks are born delivered: the pruned schedule is empty and
	// that is correct, not an error.
	tor := topology.MustNew(4, 4)
	m := mustNew(t, tor.Nodes(), []block.Block{b(0, 0), b(5, 5), b(15, 15)})
	pruned, err := Prune(direct(t, tor), m)
	if err != nil {
		t.Fatal(err)
	}
	if pruned.NumSteps() != 0 {
		t.Fatalf("self-only matrix kept %d steps", pruned.NumSteps())
	}
}

func TestPruneRejectsStructuralSchedule(t *testing.T) {
	tor := topology.MustNew(4, 4)
	sc := &schedule.Schedule{Fabric: tor, Phases: []schedule.Phase{{
		Name:  "structural",
		Steps: []schedule.Step{{Transfers: []schedule.Transfer{{Src: 0, Dst: 1, Dim: 0, Dir: topology.Pos, Hops: 1, Blocks: 2}}}},
	}}}
	if _, err := Prune(sc, Full(tor.Nodes())); err == nil || !strings.Contains(err.Error(), "payload") {
		t.Fatalf("structural schedule accepted: %v", err)
	}
}

func TestPruneRejectsMismatchedNodes(t *testing.T) {
	tor := topology.MustNew(4, 4)
	if _, err := Prune(direct(t, tor), Full(8)); err == nil || !strings.Contains(err.Error(), "nodes") {
		t.Fatalf("node-count mismatch accepted: %v", err)
	}
}

func TestPruneRejectsUncarriedBlock(t *testing.T) {
	// A schedule that only ever moves 0->1 cannot serve a matrix that
	// needs 2->3; prune must name the missing block.
	tor := topology.MustNew(4, 4)
	sc := &schedule.Schedule{Fabric: tor, Phases: []schedule.Phase{{
		Name: "partial",
		Steps: []schedule.Step{{Transfers: []schedule.Transfer{{
			Src: 0, Dst: 1, Dim: 0, Dir: topology.Pos, Hops: 1, Blocks: 1,
			Payload: []int32{b(0, 1).ID(tor.Nodes())},
		}}}},
	}}}
	m := mustNew(t, tor.Nodes(), []block.Block{b(0, 1), b(2, 3)})
	if _, err := Prune(sc, m); err == nil || !strings.Contains(err.Error(), "never carries") {
		t.Fatalf("uncarried block accepted: %v", err)
	}
}

func TestPruneRejectsOutOfRangeEndpoint(t *testing.T) {
	// The held-block counts are indexed by transfer endpoint, so a
	// kept transfer from outside the fabric is an error, not a panic.
	tor := topology.MustNew(4, 4)
	sc := &schedule.Schedule{Fabric: tor, Phases: []schedule.Phase{{
		Name: "bad",
		Steps: []schedule.Step{{Transfers: []schedule.Transfer{{
			Src: 0, Dst: 99, Dim: 0, Dir: topology.Pos, Hops: 1, Blocks: 1,
			Payload: []int32{b(0, 1).ID(tor.Nodes())},
		}}}},
	}}}
	m := mustNew(t, tor.Nodes(), []block.Block{b(0, 1)})
	if _, err := Prune(sc, m); err == nil || !strings.Contains(err.Error(), "endpoint") {
		t.Fatalf("out-of-range endpoint accepted: %v", err)
	}
}

func TestPruneSharedStepSharingShrinks(t *testing.T) {
	// Pruning a Shared step can only lower its serialization factor;
	// the compiled measure must reflect the pruned, not dense, factor.
	tor := topology.MustNew(4, 4)
	full := direct(t, tor)
	dense, err := exec.Compile(full, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := Permutation(tor.Nodes(), 3)
	sparse := pruneAndReplay(t, full, m)
	dm, sm := dense.Run, sparse.Run // silence unused; measures compared below
	_ = dm
	_ = sm
	dres, err := dense.Run(exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sres, err := sparse.Run(exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sres.MaxSharing > dres.MaxSharing {
		t.Fatalf("pruning increased MaxSharing: %d > %d", sres.MaxSharing, dres.MaxSharing)
	}
	if sres.Measure.Blocks >= dres.Measure.Blocks {
		t.Fatalf("pruning did not shrink the transmission cost: %d vs %d", sres.Measure.Blocks, dres.Measure.Blocks)
	}
}

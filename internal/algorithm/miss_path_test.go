package algorithm

import (
	"runtime"
	"slices"
	"testing"

	"torusx/internal/costmodel"
	"torusx/internal/exec"
	"torusx/internal/obs"
	"torusx/internal/progcache"
	"torusx/internal/telemetry"
	"torusx/internal/topology"
	"torusx/internal/traffic"
)

// withColdTier points the process-wide program cache at a fresh cache
// whose disk tier is an empty directory, for the rest of the test, so
// the next BuildProgram runs the whole miss path: plan, compile, store
// and the load of the stored file.
func withColdTier(t *testing.T) {
	t.Helper()
	store, err := progcache.NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	prev := cache
	cache = progcache.New(progcache.DefaultMaxBytes)
	cache.SetTier2(store)
	t.Cleanup(func() { cache = prev })
}

// TestColdBuildProgramStageNames: a traced cold BuildProgram, and the
// replay after it, record only stages from obs.StageNames — Compile's
// passes, the delivery pass and, on a run with telemetry, the
// schedule's materialization among them — and a cold sparse build does
// too.
func TestColdBuildProgramStageNames(t *testing.T) {
	known := obs.StageNames()
	tor := topology.MustNew(8, 8)
	for _, alg := range []string{"proposed-sim", "proposed"} {
		withColdTier(t)
		b, err := For(alg)
		if err != nil {
			t.Fatal(err)
		}
		req := obs.NewRegistry().StartRequest(alg)
		pg, err := BuildProgram(b, tor, exec.Options{Request: req})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pg.Run(exec.Options{Request: req}); err != nil {
			t.Fatal(err)
		}
		rec := telemetry.New(telemetry.NopSink{}, costmodel.T3D(64))
		if _, err := pg.Run(exec.Options{Request: req, Telemetry: rec}); err != nil {
			t.Fatal(err)
		}
		req.Finish()
		var got []string
		for _, st := range req.Stages() {
			if !slices.Contains(known, st.Name) {
				t.Errorf("%s: stage %q is not in obs.StageNames", alg, st.Name)
			}
			got = append(got, st.Name)
		}
		want := []string{obs.StageCacheLookup, obs.StageTier2Load, obs.StagePlan, obs.StageCompile,
			obs.StageLower, obs.StageSeal, obs.StageTier2Store, obs.StageMaterialize}
		if alg == "proposed-sim" {
			want = append(want, obs.StageReferenceReplay, obs.StagePlanDescriptors, obs.StageReplay, obs.StageDeliver)
		}
		for _, name := range want {
			if !slices.Contains(got, name) {
				t.Errorf("%s: cold BuildProgram recorded %v, missing %q", alg, got, name)
			}
		}
	}
	m, err := traffic.ParseSpec("uniform:p=0.25,seed=1", tor.Nodes())
	if err != nil {
		t.Fatal(err)
	}
	b, err := For("ring")
	if err != nil {
		t.Fatal(err)
	}
	req := obs.NewRegistry().StartRequest("ring+sparse")
	if _, err := BuildSparseProgram(b, tor, m, exec.Options{Request: req}); err != nil {
		t.Fatal(err)
	}
	for _, st := range req.Stages() {
		if !slices.Contains(known, st.Name) {
			t.Errorf("sparse: stage %q is not in obs.StageNames", st.Name)
		}
	}
}

// missPathBudgetMiB pins the bytes one cold BuildProgram allocates with
// a disk tier attached — plan, compile, store and load back — for each payload
// cell at 16x16 at GOMAXPROCS 2, with the scratch pools empty: the
// measured value (linux/amd64, Go 1.24) plus 25%. The streamed compile
// adopts every step of at least 2^14 payload ids in the builder's
// backing, so the four round-engine and dense cells pay no copy of
// them; direct's steps are smaller and copied.
var missPathBudgetMiB = map[string]float64{
	"direct":       17.9, // 14.27 measured
	"factored":     5.2,  // 4.15
	"logtime":      5.2,  // 4.15
	"proposed-sim": 5.9,  // 4.73
	"ring":         11.0, // 8.80
}

// TestMissPathAllocBudget measures each cell's cold BuildProgram after
// two collections, which empty the sync.Pool scratch, so every table
// the miss path needs is allocated fresh, as in a cold process.
func TestMissPathAllocBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	tor := topology.MustNew(16, 16)
	for _, alg := range []string{"direct", "factored", "logtime", "proposed-sim", "ring"} {
		t.Run(alg, func(t *testing.T) {
			budget := missPathBudgetMiB[alg]
			b, err := For(alg)
			if err != nil {
				t.Fatal(err)
			}
			withColdTier(t)
			runtime.GC()
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err = BuildProgram(b, tor, exec.Options{})
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if st := cache.Stats(); st.Compiles != 1 || st.Tier2Stores != 1 {
				t.Fatalf("cold BuildProgram: %v, want one compile and one store", st)
			}
			got := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
			t.Logf("%s@16x16 miss path: %.2f MiB", alg, got)
			if got > budget {
				t.Fatalf("cold BuildProgram(%s@16x16) allocates %.2f MiB, budget %.2f MiB", alg, got, budget)
			}
		})
	}
}

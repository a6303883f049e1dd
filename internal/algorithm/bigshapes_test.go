//go:build bigshapes

package algorithm

import (
	"testing"

	"torusx/internal/exec"
	"torusx/internal/progcache"
	"torusx/internal/topology"
)

// TestProgramWeight32x32: every registry program on 32x32 weighs at
// most 4.5 MiB once compiled — its replay core — whether the compile is
// served from memory or loaded back from the disk tier it was stored
// to. Run with:
//
//	go test -tags bigshapes -run TestProgramWeight32x32 ./internal/algorithm
func TestProgramWeight32x32(t *testing.T) {
	const budget = 4.5 * (1 << 20)
	tor := topology.MustNew(32, 32)
	store, err := progcache.NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tiered := progcache.New(0)
	tiered.SetTier2(store)
	for _, name := range Supporting(tor) {
		b := registry[name]
		sc, err := b.BuildSchedule(tor)
		if err != nil {
			t.Fatal(err)
		}
		pg, err := exec.Compile(sc, exec.Options{})
		if err != nil {
			t.Fatal(err)
		}
		key := progcache.Key(name, tor, 0)
		loaded, err := tiered.GetOrCompileTiered(key, tor, 0, nil, nil, func() (*exec.Program, error) { return pg, nil })
		if err != nil {
			t.Fatal(err)
		}
		if st := tiered.Stats(); st.Tier2Stores == 0 {
			t.Fatalf("%s: not stored to the disk tier: %v", name, st)
		}
		for _, c := range []struct {
			label string
			pg    *exec.Program
		}{{"compiled", pg}, {"disk tier", loaded}} {
			if w := c.pg.SizeBytes(); w > budget {
				t.Errorf("%s@32x32 (%s) weighs %.2f MiB, budget 4.5 MiB", name, c.label, float64(w)/(1<<20))
			}
		}
	}
}

package exec_test

import (
	"strconv"
	"testing"

	"torusx/internal/exec"
	"torusx/internal/topology"
	"torusx/internal/traffic"
)

// TestRecycledLogParallelDifferential holds every registry program on
// 8x8 and 16x16 whose block log recycles dead windows — under the full
// matrix and each canned sparse one — to the oracle on the parallel
// replay with every step and delivery fanned out, at 1, 2 and 7
// workers: delivered ids through RunArena and ReplayInto, Measure and
// BytesMoved. A window laid over a dead one is written while other
// workers read their senders' regions in the same step, so this is the
// test that -race in CI runs over the recycled layout.
func TestRecycledLogParallelDifferential(t *testing.T) {
	defer exec.SetFanOutElems(exec.SetFanOutElems(1))
	specs := append([]string{""}, traffic.CannedSpecs()...)
	recycled := 0
	for _, fab := range tori([][]int{{8, 8}, {16, 16}}) {
		for _, spec := range specs {
			matrix := spec
			if matrix == "" {
				matrix = "full"
			}
			for _, r := range registryRows(t, []topology.Fabric{fab}, spec, atName) {
				name := r.name + "+" + matrix
				pg, err := exec.Compile(r.sc, exec.Options{Traffic: r.traffic})
				if err != nil {
					t.Fatalf("%s: Compile: %v", name, err)
				}
				if !pg.Replayable() || !exec.ReusesWindows(pg) {
					continue
				}
				recycled++
				t.Run(name, func(t *testing.T) {
					want, err := oracleRun(r.sc, r.traffic)
					if err != nil {
						t.Fatalf("oracle: %v", err)
					}
					wantIDs := flatIDs(want.Buffers)
					arena := pg.NewArena()
					dst := make([]int32, pg.DeliverySize())
					for _, w := range []int{1, 2, 7} {
						label := "workers-" + strconv.Itoa(w)
						opt := exec.Options{Workers: w}
						res, err := pg.RunArena(arena, opt)
						if err != nil {
							t.Fatalf("%s/RunArena: %v", label, err)
						}
						if res.Measure != want.Measure || res.BytesMoved != pg.BytesMoved() {
							t.Fatalf("%s/RunArena: Measure %+v BytesMoved %d, oracle %+v, program %d",
								label, res.Measure, res.BytesMoved, want.Measure, pg.BytesMoved())
						}
						sameIDs(t, label+"/RunArena", wantIDs, flatIDs(res.Buffers))
						clear(dst)
						if err := pg.ReplayInto(arena, dst, opt); err != nil {
							t.Fatalf("%s/ReplayInto: %v", label, err)
						}
						sameIDs(t, label+"/ReplayInto", wantIDs, dst)
					}
				})
			}
		}
	}
	if recycled == 0 {
		t.Fatal("no registry program recycles its block log")
	}
}

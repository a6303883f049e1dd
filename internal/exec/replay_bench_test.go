package exec_test

import (
	"strconv"
	"testing"

	"torusx/internal/algorithm"
	"torusx/internal/exec"
	"torusx/internal/topology"
)

// fanOutSweep are the fan-out thresholds BenchmarkReplayFanOut tries,
// in elements: 0 fans every step out, 1<<30 runs every step inline.
var fanOutSweep = []int{0, 1 << 14, 1 << 15, 1 << 16, 1 << 17, 1 << 18, 1 << 19, 1 << 20, 1 << 30}

// BenchmarkReplayFanOut is the crossover sweep behind the parallel
// replay's fan-out threshold, which gates both uses of the worker pool:
// a step's log moves (sharded by sender) and the delivery pass (sharded
// by node). It times a warm RunArena of each payload algorithm at 16x16
// and 32x32 on the default parallel path, once per threshold in
// fanOutSweep, plus a serial row. Each cell reports the two sizes the
// threshold is held against: its largest step's log-move elements
// (max-step-elems) and its delivery pass's elements (delivery-elems).
// A 32x32 compile holds up to about 2 GB, so sweep those cells one per
// process:
//
//	go test -run '^$' -bench 'ReplayFanOut/ring@32x32' -benchtime 20x ./internal/exec
func BenchmarkReplayFanOut(b *testing.B) {
	for _, dims := range [][]int{{16, 16}, {32, 32}} {
		fab := topology.MustNew(dims...)
		for _, alg := range coldCells {
			b.Run(alg+"@"+fab.String(), func(b *testing.B) {
				pg := compiledCell(b, alg, fab)
				arena := pg.NewArena()
				maxStep := 0
				for _, e := range exec.StepElems(pg) {
					maxStep = max(maxStep, e)
				}
				run := func(b *testing.B, opt exec.Options) {
					if _, err := pg.RunArena(arena, opt); err != nil {
						b.Fatal(err)
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := pg.RunArena(arena, opt); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(maxStep), "max-step-elems")
					b.ReportMetric(float64(pg.DeliverySize()), "delivery-elems")
				}
				b.Run("serial", func(b *testing.B) { run(b, exec.Options{Serial: true}) })
				for _, min := range fanOutSweep {
					b.Run("min="+strconv.Itoa(min), func(b *testing.B) {
						prev := exec.SetFanOutElems(min)
						defer exec.SetFanOutElems(prev)
						run(b, exec.Options{})
					})
				}
			})
		}
	}
}

// BenchmarkDeliverPass times the delivery pass alone, serially, from a
// warm arena's final log, for each payload algorithm at 16x16 and
// 32x32: "ReplayInto" gathers and checks into a DeliverySize() buffer,
// "RunArena" gathers and checks through the gather scratch and
// materializes the Result.Buffers. On a program without log moves
// (direct) the "-column" rows run the node-at-a-time pass the tiled
// one replaced, over the same log. Sweep the 32x32 cells one per
// process:
//
//	go test -run '^$' -bench 'DeliverPass/direct@32x32' -benchtime 41x -count 2 ./internal/exec
func BenchmarkDeliverPass(b *testing.B) {
	for _, dims := range [][]int{{16, 16}, {32, 32}} {
		fab := topology.MustNew(dims...)
		for _, alg := range coldCells {
			b.Run(alg+"@"+fab.String(), func(b *testing.B) {
				pg := compiledCell(b, alg, fab)
				arena := pg.NewArena()
				if _, err := pg.RunArena(arena, exec.Options{Serial: true}); err != nil {
					b.Fatal(err)
				}
				dst := make([]int32, pg.DeliverySize())
				type form struct {
					name    string
					dst     []int32
					untiled bool
				}
				forms := []form{{"ReplayInto", dst, false}, {"RunArena", nil, false}}
				if pg.Stats().LastHopOnly {
					forms = append(forms, form{"ReplayInto-column", dst, true}, form{"RunArena-column", nil, true})
				}
				for _, f := range forms {
					b.Run(f.name, func(b *testing.B) {
						for i := 0; i < b.N; i++ {
							if err := exec.DeliverPass(pg, arena, f.dst, f.untiled); err != nil {
								b.Fatal(err)
							}
						}
					})
				}
			})
		}
	}
}

// compiledCell builds alg's schedule on fab and compiles it.
func compiledCell(b *testing.B, alg string, fab topology.Fabric) *exec.Program {
	b.Helper()
	bld, err := algorithm.For(alg)
	if err != nil {
		b.Fatal(err)
	}
	sc, err := bld.BuildSchedule(fab)
	if err != nil {
		b.Fatal(err)
	}
	pg, err := exec.Compile(sc, exec.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return pg
}

// BenchmarkFirstReplay16 times what a fresh process pays after loading
// a program from the disk tier: a new arena and its first RunArena, on
// a decoded 16x16 program, per payload algorithm.
func BenchmarkFirstReplay16(b *testing.B) {
	tor := topology.MustNew(16, 16)
	for _, alg := range coldCells {
		b.Run(alg, func(b *testing.B) {
			pg := decodedProgram(b, alg, tor)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pg.RunArena(pg.NewArena(), exec.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

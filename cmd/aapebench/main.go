// Command aapebench sweeps the registered algorithms over a grid of
// torus shapes, times the shared executor on each cell, and emits the
// machine-readable benchmark ledger BENCH_exec.json (see
// internal/benchfmt) so the repository's perf trajectory has pinned
// data points. Deterministic cost counters (startups, blocks, hops,
// rearranged) ride along with every timing, so golden tests can gate
// on the counters while the ns/op columns track each host.
//
// Each cell is compiled once through the serving-layer program cache
// (algorithm.BuildProgram, outside the timed region — the cold compile
// cost lands in the compile_ns/compile_allocs columns) and every timed
// op replays the compiled program on an acquired arena — the
// compile-once/replay-many fast path the ledger's headline numbers
// track.
// A progcache footer reports the sweep's hit/miss/coalesced counters,
// and -shapes N replays the whole grid from N concurrent tenants to
// exercise the cache the way a multi-tenant server would.
//
// Usage:
//
//	aapebench                                  # default grid, BENCH_exec.json
//	aapebench -dims 8x8,16x16,4x4x4 -algs proposed,direct
//	aapebench -parallel=false                  # time the serial replay
//	aapebench -quick -out -                    # one run per cell, stdout only
//	aapebench -samples 10                      # spread columns from 10 repeats
//	aapebench -shapes 16                       # warm-cache sweep from 16 tenants
//	aapebench -baseline BENCH_exec.json        # per-cell deltas vs a committed
//	                                           # ledger; exit 1 when allocs/op
//	                                           # regress beyond -tolerance %
//	aapebench -pprof localhost:6060            # live pprof + expvar while sweeping
//	aapebench -quick -trace-out t.json -heatmap  # telemetry from an untimed run
//	aapebench -fabric dragonfly -dims 2x3,2x4  # sweep dragonfly shapes instead
//	aapebench -smoke                           # compile+replay every (fabric,
//	                                           # algorithm) registry pair, no timings
//
// Cells whose builder rejects the shape (e.g. logtime on non-power-of-
// two tori) are skipped and reported on stderr.
package main

import (
	"expvar"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"torusx/internal/algorithm"
	"torusx/internal/benchfmt"
	"torusx/internal/cli"
	"torusx/internal/costmodel"
	"torusx/internal/exec"
	"torusx/internal/obs"
	"torusx/internal/topology"
	"torusx/internal/traffic"
)

// benchCells counts completed sweep cells, exported on /debug/vars
// when -pprof is set so a long sweep's progress is observable.
var benchCells = expvar.NewInt("aapebench_cells")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		cli.Fatalf("aapebench: %v", err)
	}
}

// run parses args, sweeps the grid, and writes the summary to w plus
// the JSON ledger to -out; extracted from main for testing.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("aapebench", flag.ContinueOnError)
	var (
		fabricFlag   = fs.String("fabric", "torus", "fabric kind the -dims shapes describe: torus or dragonfly (KxM)")
		dimsFlag     = fs.String("dims", "8x8,16x16,4x4x4", "comma-separated fabric shapes to sweep")
		algsFlag     = fs.String("algs", "", "comma-separated algorithms (default: every registered algorithm: "+strings.Join(algorithm.Names(), ", ")+")")
		outFlag      = fs.String("out", "BENCH_exec.json", "ledger path ('-' = stdout only)")
		parallelFlag = fs.Bool("parallel", true, "run the executor's parallel fan-out path (false: time the serial replay)")
		workersFlag  = fs.Int("workers", 0, "parallel executor worker count (0 = GOMAXPROCS)")
		quickFlag    = fs.Bool("quick", false, "single timed run per cell instead of a full benchmark (for tests and smoke runs)")
		samplesFlag  = fs.Int("samples", 5, "repeat timings per cell behind the ns_min/ns_max/ns_stddev ledger columns (<2 disables)")
		pprofFlag    = fs.String("pprof", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060) for the sweep's duration")

		shapesFlag    = fs.Int("shapes", 0, "after the sweep, replay the whole grid from this many concurrent tenants through the program cache and report hit-rate and warm latency (0 disables)")
		baselineFlag  = fs.String("baseline", "", "compare the sweep against this committed ledger: print per-cell ns/op and allocs/op deltas and exit nonzero when allocs/op regress beyond -tolerance percent")
		toleranceFlag = fs.Float64("tolerance", 25, "allocs/op regression tolerance for -baseline, in percent")
		smokeFlag     = fs.Bool("smoke", false, "registry smoke: compile and replay every supported (fabric, algorithm) pair once, report, and exit — no timings, no ledger")
		trafficFlag   = fs.String("traffic", "", "sweep sparse traffic instead of the dense all-to-all: a spec (see internal/traffic), or 'all' for one canned matrix per generator; with -smoke, compile+replay every (generator, sparse algorithm) pair plus the planner pick")
		prewarmFlag   = fs.Bool("prewarm", false, "compile every (shape, algorithm) cell of the sweep grid into the -progcache-dir disk tier and exit — a shape pack later processes load in sub-millisecond instead of compiling")
	)
	tel := cli.RegisterTelemetry(fs)
	cacheDirFlag := cli.RegisterCacheDir(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := algorithm.SetCacheDir(*cacheDirFlag); err != nil {
		return err
	}
	if *trafficFlag != "" {
		// Sparse cells must never overwrite the committed dense ledger:
		// unless -out was given explicitly, a sparse sweep goes to stdout.
		outSet := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "out" {
				outSet = true
			}
		})
		if !outSet {
			*outFlag = "-"
		}
	}

	if *pprofFlag != "" {
		ln, err := net.Listen("tcp", *pprofFlag)
		if err != nil {
			return err
		}
		defer ln.Close()
		// /debug/vars serves the live metrics registry next to the
		// sweep-progress counter; the snapshot is taken per scrape.
		publishExpvar(obs.Default(), "torusx_obs")
		go http.Serve(ln, nil)
		fmt.Fprintf(w, "profiling: http://%s/debug/pprof/ and http://%s/debug/vars\n", ln.Addr(), ln.Addr())
	}

	shapes, err := parseShapes(*dimsFlag)
	if err != nil {
		return err
	}
	algs := algorithm.Names()
	if *algsFlag != "" {
		algs = strings.Split(*algsFlag, ",")
	}
	opt := exec.Options{Serial: !*parallelFlag, Workers: *workersFlag}
	if *prewarmFlag {
		if *cacheDirFlag == "" {
			return fmt.Errorf("-prewarm needs -progcache-dir")
		}
		return prewarm(w, *fabricFlag, shapes, algs, opt)
	}
	if *smokeFlag {
		if *trafficFlag != "" {
			return sparseSmoke(w, opt, *trafficFlag)
		}
		return registrySmoke(w, opt)
	}
	if *trafficFlag != "" {
		return sparseSweep(w, *fabricFlag, *outFlag, shapes, algs, *algsFlag != "", trafficSpecs(*trafficFlag), opt, *quickFlag, *samplesFlag, tel)
	}

	ledger := &benchfmt.File{
		Schema: benchfmt.Schema,
		GoOS:   runtime.GOOS, GoArch: runtime.GOARCH,
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	fmt.Fprintf(w, "%-14s %-10s %14s %12s %12s %12s %8s %8s\n", "alg", "dims", "ns/op", "allocs/op", "compile ns", "bytes/op", "steps", "blocks")
	var firstLabel string
	var firstFab topology.Fabric
	for _, dims := range shapes {
		fab, err := cli.ParseFabric(*fabricFlag, shapeString(dims))
		if err != nil {
			return fmt.Errorf("shape %v: %v", dims, err)
		}
		for _, name := range algs {
			b, err := algorithm.For(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			// The timed op is the compiled replay: the compile — schedule
			// build, lowering, checks — happens once, here, through the
			// program cache, outside every timed region and timed
			// separately into the compile_ns column. One wall-clock
			// request per cell: cache-lookup/plan/compile record during
			// the one-shot build, arena-acquire and a single replay during
			// the untimed observability run below — never inside a timed
			// region, so the timings stay exactly what the ledger always
			// measured.
			req := tel.StartRequest(b.Name() + "@" + shapeString(dims))
			bopt := opt
			bopt.Request = req
			var pg *exec.Program
			var buildErr error
			compileNs, compileAllocs := timeIt(func() {
				pg, buildErr = algorithm.BuildProgram(b, fab, bopt)
			})
			if buildErr != nil {
				fmt.Fprintf(os.Stderr, "aapebench: skip %s on %s: %v\n", b.Name(), shapeString(dims), buildErr)
				continue
			}
			asp := req.Stage(obs.StageArenaAcquire)
			arena := pg.AcquireArena()
			asp.End()
			defer pg.ReleaseArena(arena)
			runOnce := func(topt exec.Options) (*exec.Result, error) { return pg.RunArena(arena, topt) }
			compileParallelNs, tier2LoadNs := coldStartTimings(b, fab, pg, bopt)
			res, err := runOnce(opt)
			if err != nil {
				return fmt.Errorf("%s on %s: %v", b.Name(), shapeString(dims), err)
			}
			entry := benchfmt.Entry{
				Alg: b.Name(), Dims: dims, Parallel: parallelLabel(opt), Compiled: true,
				CompileNs: compileNs, CompileAllocs: compileAllocs,
				CompileParallelNs: compileParallelNs, Tier2LoadNs: tier2LoadNs,
				Steps: res.Measure.Steps, Blocks: res.Measure.Blocks,
				Hops: res.Measure.Hops, Rearranged: res.Measure.RearrangedBlocks,
				MaxSharing: res.MaxSharing,
				// A deterministic plan measure, not the run's: the ledger's
				// bytes column must be identical on every host.
				BytesMoved: pg.BytesMoved(),
			}
			if *quickFlag {
				entry.NsPerOp, entry.AllocsPerOp, entry.BytesPerOp = timeOnce(runOnce, opt)
			} else {
				br := testing.Benchmark(func(bb *testing.B) {
					bb.ReportAllocs()
					for i := 0; i < bb.N; i++ {
						if _, err := runOnce(opt); err != nil {
							bb.Fatal(err)
						}
					}
				})
				entry.NsPerOp = float64(br.NsPerOp())
				entry.AllocsPerOp = br.AllocsPerOp()
				entry.BytesPerOp = br.AllocedBytesPerOp()
			}
			// Repeat timings estimate the cell's spread; each sample is
			// itself amortized over enough ops that it measures the same
			// quantity as the headline ns/op (a raw single run carries
			// fixed measurement overhead that once pushed ns_min above
			// ns_per_op on sub-microsecond cells), and the headline figure
			// joins the envelope so ns_min ≤ ns_per_op ≤ ns_max holds by
			// construction.
			if *samplesFlag >= 2 {
				iters := sampleIters(entry.NsPerOp, *quickFlag)
				samples := make([]float64, *samplesFlag)
				for i := range samples {
					samples[i] = timeBatch(runOnce, opt, iters)
				}
				entry.NsMin, entry.NsMax, entry.NsStddev = benchfmt.SampleStats(samples)
				entry.Samples = len(samples)
				entry.NsP50 = benchfmt.Percentile(samples, 0.50)
				entry.NsP99 = benchfmt.Percentile(samples, 0.99)
				if entry.NsPerOp < entry.NsMin {
					entry.NsMin = entry.NsPerOp
				}
				if entry.NsPerOp > entry.NsMax {
					entry.NsMax = entry.NsPerOp
				}
				// With -metrics-out, the same repeat timings feed a
				// registry histogram, so the dump's per-cell percentiles
				// line up with the ledger columns.
				if tel.ObsEnabled() {
					h := obs.Default().Histogram("bench." + entry.Key() + ".ns")
					for _, s := range samples {
						h.Observe(int64(s))
					}
				}
			}
			// Telemetry rides on a separate, untimed run so sinks never
			// perturb the timings recorded above; the cell's request rides
			// the same run, recording its replay stage.
			if tel.Enabled() || tel.ObsEnabled() {
				rec, err := tel.Labeled(costmodel.T3D(64), entry.Key())
				if err != nil {
					return err
				}
				topt := opt
				topt.Telemetry = rec
				topt.Request = req
				if _, err := runOnce(topt); err != nil {
					return err
				}
				if firstLabel == "" {
					firstLabel = entry.Key()
					firstFab = fab
				}
			}
			benchCells.Add(1)
			ledger.Entries = append(ledger.Entries, entry)
			fmt.Fprintf(w, "%-14s %-10s %14.0f %12d %12.0f %12d %8d %8d\n",
				entry.Alg, shapeString(dims), entry.NsPerOp, entry.AllocsPerOp, entry.CompileNs,
				entry.BytesMoved, entry.Steps, entry.Blocks)
		}
	}

	if *shapesFlag > 0 {
		if err := tenantSweep(w, *fabricFlag, shapes, algs, opt, *shapesFlag); err != nil {
			return err
		}
	}
	// The footer is the registry's view of the sweep — the same counters
	// /debug/vars and -metrics-out export.
	obs.Default().WriteText(w, "progcache.", "exec.")
	// Finish after the footer so a -metrics-out dump includes the tenant
	// sweep's cache traffic; tolerates a fabric-less sweep (every cell
	// skipped).
	if err := tel.Finish(w, firstFab, firstLabel); err != nil {
		return err
	}
	if err := ledger.Validate(); err != nil {
		return err
	}
	if *outFlag != "-" && *outFlag != "" {
		f, err := os.Create(*outFlag)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := ledger.Write(f); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %d entries to %s\n", len(ledger.Entries), *outFlag)
	} else if err := ledger.Write(w); err != nil {
		return err
	}
	if *baselineFlag != "" {
		return compareBaseline(w, *baselineFlag, ledger, *toleranceFlag)
	}
	return nil
}

// compareBaseline prints this sweep's per-cell deltas against a
// committed ledger and errors (nonzero exit) when any cell's
// allocs/op regressed beyond the tolerance. Timings are reported but
// never gated — they are host-dependent; allocation counts of the
// compiled fast path are deterministic modulo a small fixed slack
// (benchfmt.AllocSlack).
func compareBaseline(w io.Writer, path string, ledger *benchfmt.File, tolerancePct float64) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	base, err := benchfmt.Decode(f)
	if err != nil {
		return fmt.Errorf("baseline %s: %v", path, err)
	}
	deltas, ungated, regressed := benchfmt.Compare(base, ledger, tolerancePct)
	if len(deltas) == 0 {
		return fmt.Errorf("baseline %s: no overlapping cells to compare", path)
	}
	fmt.Fprintf(w, "\nvs %s (alloc tolerance %.0f%% + %d):\n", path, tolerancePct, benchfmt.AllocSlack)
	fmt.Fprintf(w, "%-24s %14s %14s %12s %12s %12s %12s\n", "cell", "ns/op", "Δns", "allocs/op", "Δallocs", "bytes/op", "Δbytes")
	var failed []string
	for _, d := range deltas {
		mark := ""
		if d.Regressed {
			mark = "  REGRESSED"
			failed = append(failed, d.Key)
		}
		fmt.Fprintf(w, "%-24s %14.0f %+13.1f%% %12d %+11.1f%% %12d %+11.1f%%%s\n",
			d.Key, d.New.NsPerOp, d.NsDeltaPct, d.New.AllocsPerOp, d.AllocsDeltaPct,
			d.New.BytesMoved, d.BytesDeltaPct, mark)
	}
	if len(ungated) > 0 {
		fmt.Fprintf(w, "\nungated (no row in %s):\n", path)
		for _, k := range ungated {
			fmt.Fprintf(w, "  %s\n", k)
		}
	}
	if regressed {
		return fmt.Errorf("allocs/op or bytes moved regressed beyond %.0f%% tolerance in: %s",
			tolerancePct, strings.Join(failed, ", "))
	}
	return nil
}

// tenantSweep replays the whole (algorithm, shape) grid from tenants
// concurrent goroutines, every request going through the program cache
// and an acquired arena — the multi-tenant serving pattern. It reports
// the aggregate request rate and the cache's hit/miss/coalesced deltas
// so a cache regression (e.g. a fingerprint change splitting hot keys)
// shows up as a miss-rate jump, not just slower wall time.
func tenantSweep(w io.Writer, fabric string, shapes [][]int, algs []string, opt exec.Options, tenants int) error {
	type cell struct {
		b   algorithm.Builder
		fab topology.Fabric
	}
	var cells []cell
	for _, dims := range shapes {
		fab, err := cli.ParseFabric(fabric, shapeString(dims))
		if err != nil {
			return err
		}
		for _, name := range algs {
			b, err := algorithm.For(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			if _, err := b.BuildSchedule(fab); err != nil {
				continue // precondition mismatch, already reported by the sweep
			}
			cells = append(cells, cell{b, fab})
		}
	}
	if len(cells) == 0 {
		return fmt.Errorf("tenant sweep: no runnable cells")
	}
	const rounds = 4
	before := algorithm.CacheStats()
	start := time.Now()
	errs := make([]error, tenants)
	var wg sync.WaitGroup
	for g := 0; g < tenants; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := range cells {
					c := cells[(g+i)%len(cells)] // rotate per tenant: mixed key traffic
					pg, err := algorithm.BuildProgram(c.b, c.fab, opt)
					if err != nil {
						errs[g] = err
						return
					}
					a := pg.AcquireArena()
					if _, err := pg.RunArena(a, opt); err != nil {
						errs[g] = err
						return
					}
					pg.ReleaseArena(a)
				}
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("tenant sweep: %v", err)
		}
	}
	after := algorithm.CacheStats()
	requests := tenants * rounds * len(cells)
	fmt.Fprintf(w, "\ntenant sweep: %d tenants x %d rounds x %d cells = %d requests in %v (%.0f ns/request)\n",
		tenants, rounds, len(cells), requests, elapsed.Round(time.Millisecond),
		float64(elapsed.Nanoseconds())/float64(requests))
	fmt.Fprintf(w, "tenant sweep cache deltas: hits +%d  misses +%d  coalesced +%d  compiles +%d\n",
		after.Hits-before.Hits, after.Misses-before.Misses,
		after.Coalesced-before.Coalesced, after.Compiles-before.Compiles)
	return nil
}

// registrySmoke compiles and replays every (fabric, algorithm) pair
// the registry supports, across representative torus and dragonfly
// shapes, proving each builder still lowers, checks, and (for
// payload-carrying schedules) delivers through the shared executor.
// Cells whose builder rejects a shape precondition (e.g. swing on a
// non-power-of-two torus) are reported and skipped; a replay failure
// is fatal. CI's bench-regression job runs this before the timed
// sweep so a broken registration fails fast, independent of timings.
func registrySmoke(w io.Writer, opt exec.Options) error {
	fabrics := []topology.Fabric{
		topology.MustNew(8, 8),
		topology.MustNew(4, 4, 4),
		topology.MustNew(12, 8),
		topology.MustNewDragonfly(2, 3),
		topology.MustNewDragonfly(2, 4),
		topology.MustNewDragonfly(3, 4),
	}
	pairs, skipped := 0, 0
	for _, fab := range fabrics {
		for _, name := range algorithm.Supporting(fab) {
			b, err := algorithm.For(name)
			if err != nil {
				return err
			}
			pg, err := algorithm.BuildProgram(b, fab, opt)
			if err != nil {
				fmt.Fprintf(w, "smoke skip: %s@%s: %v\n", name, fab, err)
				skipped++
				continue
			}
			arena := pg.AcquireArena()
			res, err := pg.RunArena(arena, opt)
			pg.ReleaseArena(arena)
			if err != nil {
				return fmt.Errorf("smoke: replay %s@%s: %v", name, fab, err)
			}
			fmt.Fprintf(w, "smoke ok: %-14s %-10s steps=%-4d blocks=%-8d replayed=%v %s\n",
				name, fab, res.Measure.Steps, res.Measure.Blocks, res.Replayed, replayShape(pg))
			pairs++
		}
	}
	if pairs == 0 {
		return fmt.Errorf("registry smoke: no (fabric, algorithm) pair ran")
	}
	fmt.Fprintf(w, "registry smoke: %d pairs compiled and replayed, %d skipped\n", pairs, skipped)
	return nil
}

// replayShape renders a program's replay-plan shape for the smoke
// report: its descriptor count, its block log's slots, and whether it
// has no log moves — its whole replay is the delivery pass (a
// registration silently losing that property would show here before it
// shows in ReplayInto's allocations).
func replayShape(pg *exec.Program) string {
	st := pg.Stats()
	if !st.Replayable {
		return "structural"
	}
	mode := fmt.Sprintf("desc=%d log=%d", st.DescCount, st.LogSlots)
	if st.LastHopOnly {
		mode += " no-log-moves"
	}
	return mode
}

// trafficSpecs expands the -traffic flag: 'all' becomes one canned
// matrix per generator, anything else is a single spec.
func trafficSpecs(flag string) []string {
	if flag == "all" {
		return traffic.CannedSpecs()
	}
	return []string{flag}
}

// parallelLabel is a ledger entry's parallel label: the replay ran its
// fan-out path on more than one core. At GOMAXPROCS 1 every fan-out runs
// inline, so no cell is labelled parallel there, serial replay or not.
func parallelLabel(opt exec.Options) bool {
	return !opt.Serial && runtime.GOMAXPROCS(0) > 1
}

// sparseSweep is the -traffic counterpart of the main sweep: every
// (shape, traffic spec, sparse algorithm) cell compiles its sparse
// program through the cache (timed into the compile columns) and times
// the replay, with the matrix delivery-verified on every op. Entries
// carry the spec in the Traffic field, so their keys can never collide
// with the dense ledger's.
func sparseSweep(w io.Writer, fabric, out string, shapes [][]int, algs []string, algsExplicit bool, specs []string, opt exec.Options, quick bool, samples int, tel *cli.Telemetry) error {
	ledger := &benchfmt.File{
		Schema: benchfmt.Schema,
		GoOS:   runtime.GOOS, GoArch: runtime.GOARCH,
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	fmt.Fprintf(w, "%-14s %-10s %-24s %14s %12s %12s %10s %8s\n", "alg", "dims", "traffic", "ns/op", "allocs/op", "compile ns", "steps", "blocks")
	for _, dims := range shapes {
		fab, err := cli.ParseFabric(fabric, shapeString(dims))
		if err != nil {
			return fmt.Errorf("shape %v: %v", dims, err)
		}
		cellAlgs := algorithm.SparseSupporting(fab)
		if algsExplicit {
			cellAlgs = algs
		}
		for _, spec := range specs {
			m, err := cli.ResolveTraffic(spec, fab)
			if err != nil {
				return err
			}
			for _, name := range cellAlgs {
				b, err := algorithm.For(strings.TrimSpace(name))
				if err != nil {
					return err
				}
				if !algorithm.SparseCapable(b.Name()) {
					return fmt.Errorf("algorithm %q has no sparse variant; -traffic sweeps support %s",
						b.Name(), strings.Join(algorithm.SparseSupporting(fab), ", "))
				}
				req := tel.StartRequest(b.Name() + "+" + spec + "@" + shapeString(dims))
				bopt := opt
				bopt.Request = req
				var pg *exec.Program
				var buildErr error
				compileNs, compileAllocs := timeIt(func() {
					pg, buildErr = algorithm.BuildSparseProgram(b, fab, m, bopt)
				})
				if buildErr != nil {
					fmt.Fprintf(os.Stderr, "aapebench: skip %s+%s on %s: %v\n", b.Name(), spec, shapeString(dims), buildErr)
					continue
				}
				asp := req.Stage(obs.StageArenaAcquire)
				arena := pg.AcquireArena()
				asp.End()
				runOnce := func(topt exec.Options) (*exec.Result, error) { return pg.RunArena(arena, topt) }
				res, err := runOnce(opt)
				if err != nil {
					pg.ReleaseArena(arena)
					return fmt.Errorf("%s+%s on %s: %v", b.Name(), spec, shapeString(dims), err)
				}
				entry := benchfmt.Entry{
					Alg: b.Name(), Dims: dims, Traffic: spec, Parallel: parallelLabel(opt), Compiled: true,
					CompileNs: compileNs, CompileAllocs: compileAllocs,
					Steps: res.Measure.Steps, Blocks: res.Measure.Blocks,
					Hops: res.Measure.Hops, Rearranged: res.Measure.RearrangedBlocks,
					MaxSharing: res.MaxSharing,
					BytesMoved: pg.BytesMoved(),
				}
				if quick {
					entry.NsPerOp, entry.AllocsPerOp, entry.BytesPerOp = timeOnce(runOnce, opt)
				} else {
					br := testing.Benchmark(func(bb *testing.B) {
						bb.ReportAllocs()
						for i := 0; i < bb.N; i++ {
							if _, err := runOnce(opt); err != nil {
								bb.Fatal(err)
							}
						}
					})
					entry.NsPerOp = float64(br.NsPerOp())
					entry.AllocsPerOp = br.AllocsPerOp()
					entry.BytesPerOp = br.AllocedBytesPerOp()
				}
				if samples >= 2 {
					iters := sampleIters(entry.NsPerOp, quick)
					sv := make([]float64, samples)
					for i := range sv {
						sv[i] = timeBatch(runOnce, opt, iters)
					}
					entry.NsMin, entry.NsMax, entry.NsStddev = benchfmt.SampleStats(sv)
					entry.Samples = len(sv)
					entry.NsP50 = benchfmt.Percentile(sv, 0.50)
					entry.NsP99 = benchfmt.Percentile(sv, 0.99)
					if entry.NsPerOp < entry.NsMin {
						entry.NsMin = entry.NsPerOp
					}
					if entry.NsPerOp > entry.NsMax {
						entry.NsMax = entry.NsPerOp
					}
					if tel.ObsEnabled() {
						h := obs.Default().Histogram("bench." + entry.Key() + ".ns")
						for _, s := range sv {
							h.Observe(int64(s))
						}
					}
				}
				if req != nil {
					// An untimed replay records the cell's replay stage on
					// its request, mirroring the dense sweep.
					topt := opt
					topt.Request = req
					if _, err := runOnce(topt); err != nil {
						pg.ReleaseArena(arena)
						return err
					}
				}
				pg.ReleaseArena(arena)
				benchCells.Add(1)
				ledger.Entries = append(ledger.Entries, entry)
				fmt.Fprintf(w, "%-14s %-10s %-24s %14.0f %12d %12.0f %10d %8d\n",
					entry.Alg, shapeString(dims), spec, entry.NsPerOp, entry.AllocsPerOp, entry.CompileNs, entry.Steps, entry.Blocks)
			}
		}
	}
	obs.Default().WriteText(w, "progcache.", "exec.")
	if err := tel.Finish(w, nil, ""); err != nil {
		return err
	}
	if len(ledger.Entries) == 0 {
		return fmt.Errorf("sparse sweep: no runnable cells")
	}
	if err := ledger.Validate(); err != nil {
		return err
	}
	if out != "-" && out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := ledger.Write(f); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %d entries to %s\n", len(ledger.Entries), out)
		return nil
	}
	return ledger.Write(w)
}

// sparseSmoke is the -traffic form of the registry smoke: on every
// smoke fabric, compile and replay each (traffic generator, sparse
// algorithm) pair once — delivery verified against exactly the
// declared matrix — then run the planner on the same cell and verify
// its pick scores no worse than the best candidate (within
// costmodel.PlannerModelError). CI's bench-regression job runs this so
// the whole sparse seam (generators → prune/native build → compile →
// replay → planner) breaks loudly, independent of timings.
func sparseSmoke(w io.Writer, opt exec.Options, trafficArg string) error {
	fabrics := []topology.Fabric{
		topology.MustNew(8, 8),
		topology.MustNew(4, 4, 4),
		topology.MustNew(12, 8),
		topology.MustNewDragonfly(2, 4),
	}
	specs := trafficSpecs(trafficArg)
	pairs, skipped := 0, 0
	for _, fab := range fabrics {
		for _, spec := range specs {
			m, err := cli.ResolveTraffic(spec, fab)
			if err != nil {
				return err
			}
			best := 0.0
			for _, name := range algorithm.SparseSupporting(fab) {
				b, err := algorithm.For(name)
				if err != nil {
					return err
				}
				pg, err := algorithm.BuildSparseProgram(b, fab, m, opt)
				if err != nil {
					fmt.Fprintf(w, "sparse smoke skip: %s+%s@%s: %v\n", name, spec, fab, err)
					skipped++
					continue
				}
				arena := pg.AcquireArena()
				res, err := pg.RunArena(arena, opt)
				pg.ReleaseArena(arena)
				if err != nil {
					return fmt.Errorf("sparse smoke: replay %s+%s@%s: %v", name, spec, fab, err)
				}
				c := costmodel.T3D(64).Completion(res.Measure)
				if best == 0 || c < best {
					best = c
				}
				fmt.Fprintf(w, "sparse smoke ok: %-14s %-22s %-10s steps=%-4d blocks=%-6d replayed=%v\n",
					name, spec, fab, res.Measure.Steps, res.Measure.Blocks, res.Replayed)
				pairs++
			}
			plan, err := algorithm.PlanSparse(fab, m, costmodel.T3D(64), opt)
			if err != nil {
				return fmt.Errorf("sparse smoke: plan %s@%s: %v", spec, fab, err)
			}
			pick := plan.Scores[0].Completion
			if best > 0 && pick > best*(1+costmodel.PlannerModelError) {
				return fmt.Errorf("sparse smoke: planner pick %s costs %.1f on %s+%s, beyond best candidate %.1f",
					plan.Winner, pick, fab, spec, best)
			}
			fmt.Fprintf(w, "sparse smoke plan: %-22s %-10s pick=%s (%.1f us)\n", spec, fab, plan.Winner, pick)
		}
	}
	if pairs == 0 {
		return fmt.Errorf("sparse smoke: no (generator, algorithm) pair ran")
	}
	fmt.Fprintf(w, "sparse smoke: %d pairs compiled and replayed, %d skipped\n", pairs, skipped)
	return nil
}

// timeOnce measures a single executor run — enough for smoke tests,
// where benchmark-grade statistics would cost seconds per cell. The
// schedule has already executed once, so the run cannot fail here.
func timeOnce(runOnce func(exec.Options) (*exec.Result, error), opt exec.Options) (ns float64, allocs, bytes int64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	if _, err := runOnce(opt); err != nil {
		panic("aapebench: timed schedule stopped executing: " + err.Error())
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	ns = float64(elapsed.Nanoseconds())
	if ns < 1 {
		ns = 1
	}
	return ns, int64(after.Mallocs - before.Mallocs), int64(after.TotalAlloc - before.TotalAlloc)
}

// timeBatch times iters back-to-back runs and returns the per-op
// average: amortized like the headline benchmark figure, so the
// sampled envelope and ns/op measure the same quantity.
func timeBatch(runOnce func(exec.Options) (*exec.Result, error), opt exec.Options, iters int) float64 {
	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := runOnce(opt); err != nil {
			panic("aapebench: timed schedule stopped executing: " + err.Error())
		}
	}
	ns := float64(time.Since(start).Nanoseconds()) / float64(iters)
	if ns < 1 {
		ns = 1
	}
	return ns
}

// sampleIters sizes one spread sample: enough iterations that a
// sample spans ~1ms of work (capped at 100), so timer granularity and
// fixed per-measurement overhead stay small against the measured op.
// Quick mode keeps single-run samples — there ns/op itself is a single
// run of the same shape, so the figures remain comparable.
func sampleIters(nsPerOp float64, quick bool) int {
	if quick || nsPerOp <= 0 {
		return 1
	}
	iters := int(1e6 / nsPerOp)
	if iters < 1 {
		iters = 1
	}
	if iters > 100 {
		iters = 100
	}
	return iters
}

// timeIt times fn once, returning elapsed ns and allocation count —
// used for the compile-time columns.
func timeIt(fn func()) (ns float64, allocs int64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	fn()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	ns = float64(elapsed.Nanoseconds())
	if ns < 1 {
		ns = 1
	}
	return ns, int64(after.Mallocs - before.Mallocs)
}

func parseShapes(s string) ([][]int, error) {
	var shapes [][]int
	for _, part := range strings.Split(s, ",") {
		dims, err := cli.ParseDims(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		shapes = append(shapes, dims)
	}
	return shapes, nil
}

func shapeString(dims []int) string {
	parts := make([]string, len(dims))
	for i, d := range dims {
		parts[i] = fmt.Sprint(d)
	}
	return strings.Join(parts, "x")
}

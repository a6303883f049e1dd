// Command benchmark is torusx's end-to-end benchmark. It drives the
// pipeline every exchange runs through — schedule build, exec.Compile,
// the progcache memory and disk tiers, descriptor replay — through
// public entry points only, on four workloads, times each request and
// each layer from outside, checks every delivery with its own oracle,
// and prints each metric with its unit. The last line of its output is
// one JSON object with the run's metrics. README.md describes the
// workloads, the metrics and how to compare two commits.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	osexec "os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"torusx/internal/algorithm"
	"torusx/internal/exec"
	"torusx/internal/progcache"
	"torusx/internal/topology"
)

// processStart is taken once the packages the benchmark imports have
// initialised.
var processStart = time.Now()

const (
	// buildDir holds everything a run writes, relative to the directory
	// it runs in.
	buildDir = ".bench_build"
	// warmupRounds untimed rounds of requests end an in-process set-up.
	warmupRounds = 2
	// tracedShare: the traced pass serves 1/tracedShare as many requests
	// as the untraced pass.
	tracedShare = 10
	// smokeRequests is the request count of a -smoke run.
	smokeRequests = 20
	childTimeout  = 90 * time.Second
	// shardBudget is the largest program progcache keeps in memory:
	// its byte budget spread over its 16 shards.
	shardBudget = progcache.DefaultMaxBytes / 16
)

type kind int

const (
	warmHit   kind = iota // BuildProgram served by the memory tier, then replay
	held                  // replay a program held since set-up
	coldProc              // fresh process, empty disk tier
	tier2Proc             // fresh process, prewarmed disk tier
)

type workload struct {
	name            string
	kind            kind
	dims, smokeDims []int
}

// algs are every workload's cells: the all-to-all algorithms that carry
// payloads. Five cells whose latencies form separate clusters put the
// median and the 90th percentile of an equal-share mix inside a
// cluster; with four, the median falls in the gap between two.
var algs = []string{"direct", "factored", "logtime", "proposed-sim", "ring"}

// The four workloads stress different layers; README.md gives the
// reasons in full.
var workloads = []workload{
	// Replay almost alone, on a working set that fits in L2; the lookup
	// is a memory-tier hit. torusx.Compare serves requests this way.
	{"replay-16x16", warmHit, []int{16, 16}, []int{8, 8}},
	// Replay of 4–124 MiB per request, well outside L2. The programs are
	// over the memory tier's shard budget, so they are held from set-up.
	{"replay-32x32", held, []int{32, 32}, []int{4, 4, 4}},
	// A first run of a CLI tool: plan and compile dominate.
	{"cold-start", coldProc, []int{16, 16}, []int{8, 8}},
	// The disk tier's read side: load and first replay dominate.
	{"tier2-start", tier2Proc, []int{16, 16}, []int{4, 4, 4}},
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	smoke    bool
	out      string
	traceOut string
	// Child processes.
	child, alg, dims, dir string
	traced                bool
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	var cfg config
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload to run; empty runs all four, each in its own process")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the request order")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured pass")
	fs.IntVar(&cfg.trace, "trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	fs.BoolVar(&cfg.smoke, "smoke", false, "small shapes and about 20 requests")
	fs.StringVar(&cfg.out, "out", "", "results JSON (default "+buildDir+"/results-<workload>-seed<N>-trace<T>.json)")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "Chrome trace of a -trace 1 run (default "+buildDir+"/trace-<workload>-seed<N>.json)")
	fs.StringVar(&cfg.child, "child", "", "internal: run as a cold or tier2 child process")
	fs.StringVar(&cfg.alg, "alg", "", "internal: the child's algorithm")
	fs.StringVar(&cfg.dims, "dims", "", "internal: the child's torus shape")
	fs.StringVar(&cfg.dir, "dir", "", "internal: the child's disk tier")
	fs.BoolVar(&cfg.traced, "traced", false, "internal: the child records spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if cfg.trace != 0 && cfg.trace != 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -trace must be 0 or 1")
		return 2
	}
	var err error
	switch cfg.child {
	case "":
		if cfg.workload == "" {
			err = runAll(cfg, stdout)
		} else {
			err = runWorkload(cfg, stdout)
		}
	case "cold", "tier2":
		err = json.NewEncoder(stdout).Encode(procChild(cfg))
	default:
		err = fmt.Errorf("unknown -child mode %q", cfg.child)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// bench is one workload's run.
type bench struct {
	cfg   config
	w     workload
	fab   *topology.Torus
	shape string
	bld   []algorithm.Builder
	rng   *rand.Rand
	self  string
	root  string // this process's work directory, removed at exit
	dirs  int
	tr    *tracer

	// Set by setup.
	dir          string          // the disk tier set-up prewarmed
	compiled     []childReport   // each cell's compiling child
	setupSamples []sample        // every child set-up ran
	progs        []*exec.Program // in-process workloads: each cell's program
	dst          [][]int32       // traced pass: each cell's ReplayInto destination
}

// sample is one request.
type sample struct {
	cell  int
	reqNs int64
	err   error
	stats progcache.Stats // cache counters the request moved
	// Process workloads.
	wallNs int64
	rssKiB int64
	rep    childReport
}

func newBench(cfg config) (*bench, error) {
	var w workload
	for _, x := range workloads {
		if x.name == cfg.workload {
			w = x
		}
	}
	if w.name == "" {
		names := make([]string, len(workloads))
		for i, x := range workloads {
			names[i] = x.name
		}
		return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(names, ", "))
	}
	dims := w.dims
	if cfg.smoke {
		dims = w.smokeDims
	}
	shape := make([]string, len(dims))
	for i, d := range dims {
		shape[i] = strconv.Itoa(d)
	}
	fab, err := topology.New(dims...)
	if err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	root, err := filepath.Abs(filepath.Join(buildDir, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	b := &bench{cfg: cfg, w: w, fab: fab, shape: strings.Join(shape, "x"),
		rng: rand.New(rand.NewSource(cfg.seed)), self: self, root: root}
	for _, name := range algs {
		bld, err := algorithm.For(name)
		if err != nil {
			return nil, err
		}
		b.bld = append(b.bld, bld)
	}
	return b, nil
}

func parseShape(s string) (*topology.Torus, error) {
	var dims []int
	for _, f := range strings.Split(s, "x") {
		d, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("bad shape %q", s)
		}
		dims = append(dims, d)
	}
	return topology.New(dims...)
}

// newDir names a fresh directory under the run's work directory;
// the child given it creates it.
func (b *bench) newDir(prefix string) string {
	b.dirs++
	return filepath.Join(b.root, fmt.Sprintf("%s-%d", prefix, b.dirs))
}

// setup brings the workload to its first measured request and reports
// how long that took. It compiles every cell in a fresh process that
// writes a fresh disk tier. An in-process workload then loads each
// program through BuildProgram and serves two untimed rounds of
// requests; tier2-start starts one child per cell against the new tier.
func (b *bench) setup() (time.Duration, error) {
	start := time.Now()
	b.dir = b.newDir("tier2")
	b.compiled = make([]childReport, len(algs))
	for c := range algs {
		s := b.spawn("cold", c, b.dir)
		if s.err != nil {
			return 0, fmt.Errorf("set-up: %w", s.err)
		}
		b.compiled[c] = s.rep
		b.setupSamples = append(b.setupSamples, s)
	}
	// Left to the kernel, the new files' write-back would land about
	// 30 s later, in the middle of a measured pass.
	if err := syncDir(b.dir); err != nil {
		return 0, fmt.Errorf("set-up: %w", err)
	}
	switch b.w.kind {
	case warmHit, held:
		if err := algorithm.SetCacheDir(b.dir); err != nil {
			return 0, err
		}
		b.progs = make([]*exec.Program, len(algs))
		for c := range algs {
			before := algorithm.CacheStats().Compiles
			p, err := algorithm.BuildProgram(b.bld[c], b.fab, exec.Options{})
			if err != nil {
				return 0, fmt.Errorf("set-up: load %s: %w", algs[c], err)
			}
			if algorithm.CacheStats().Compiles != before {
				return 0, fmt.Errorf("set-up: %s compiled instead of loading from the disk tier", algs[c])
			}
			b.progs[c] = p
		}
		for r := 0; r < warmupRounds; r++ {
			for c := range algs {
				if s := b.inProcess(c); s.err != nil {
					return 0, fmt.Errorf("set-up: warm-up: %w", s.err)
				}
			}
		}
	case tier2Proc:
		for c := range algs {
			s := b.spawn("tier2", c, b.dir)
			if s.err != nil {
				return 0, fmt.Errorf("set-up: %w", s.err)
			}
			b.setupSamples = append(b.setupSamples, s)
		}
	}
	// Return the set-up's garbage to the OS, so that the measured pass's
	// peak RSS starts from what the workload holds.
	debug.FreeOSMemory()
	return time.Since(start), nil
}

// runChild runs the benchmark binary as a child process and decodes
// its report. Children run one at a time, so a run never loads more
// than GOMAXPROCS threads.
func (b *bench) runChild(args []string) (rep childReport, wallNs, rssKiB int64, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := osexec.CommandContext(ctx, b.self, args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	start := time.Now()
	err = cmd.Run()
	wallNs = time.Since(start).Nanoseconds()
	if err != nil {
		return rep, wallNs, 0, fmt.Errorf("child %s: %w", strings.Join(args, " "), err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rssKiB = ru.Maxrss
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		return rep, wallNs, rssKiB, fmt.Errorf("child %s: report: %w", strings.Join(args, " "), err)
	}
	if rep.Err != "" {
		return rep, wallNs, rssKiB, fmt.Errorf("child %s: %s", strings.Join(args, " "), rep.Err)
	}
	return rep, wallNs, rssKiB, nil
}

// spawn serves cell c in a fresh cold or tier2 child process pointed at
// dir.
func (b *bench) spawn(mode string, c int, dir string) sample {
	args := []string{"-child", mode, "-alg", algs[c], "-dims", b.shape, "-dir", dir}
	if b.tr != nil {
		args = append(args, "-traced")
	}
	sp := b.tr.begin("proc-spawn", 0, algs[c])
	rep, wall, rss, err := b.runChild(args)
	b.tr.end(sp)
	s := sample{cell: c, reqNs: rep.ReqNs, err: err, stats: rep.Stats, wallNs: wall, rssKiB: rss, rep: rep}
	if err != nil {
		return s
	}
	b.tr.adopt(rep.Spans, sp)
	if b.tr == nil {
		s.err = checkCounts(mode, algs[c], rep.Stats)
	}
	return s
}

// checkCounts checks that an untraced child went through the cache
// exactly as its mode says: one compile and one store when cold, one
// disk hit and no compile on tier 2. A traced child calls the layers
// directly and leaves the cache alone.
func checkCounts(mode, alg string, st progcache.Stats) error {
	switch {
	case mode == "cold" && (st.Compiles != 1 || st.Tier2Stores != 1):
		return fmt.Errorf("cold %s: %d compiles and %d tier-2 stores, want 1 and 1", alg, st.Compiles, st.Tier2Stores)
	case mode == "tier2" && (st.Compiles != 0 || st.Tier2Hits != 1):
		return fmt.Errorf("tier-2 %s: %d compiles and %d tier-2 hits, want 0 and 1", alg, st.Compiles, st.Tier2Hits)
	}
	return nil
}

// inProcess serves cell c in this process. The request is timed from
// the first call into torusx until RunArena returns; the oracle and the
// ReleaseArena run after it.
func (b *bench) inProcess(c int) sample {
	s := sample{cell: c}
	tr, cell := b.tr, algs[c]
	before := algorithm.CacheStats()
	req := tr.begin("request", 0, cell)
	start := time.Now()
	p := b.progs[c]
	var err error
	if b.w.kind == warmHit {
		sp := tr.begin("cache-lookup", req, cell)
		p, err = algorithm.BuildProgram(b.bld[c], b.fab, exec.Options{})
		tr.end(sp)
	}
	var a *exec.Arena
	var res *exec.Result
	if err == nil {
		a, res, err = replayRequest(tr, req, cell, p)
		defer p.ReleaseArena(a)
	}
	s.reqNs = time.Since(start).Nanoseconds()
	tr.end(req)
	s.stats = statsSince(algorithm.CacheStats(), before)
	if err == nil && s.stats.Compiles != 0 {
		err = fmt.Errorf("%s: request compiled", cell)
	}
	if err == nil {
		var dst []int32
		if tr != nil {
			if b.dst == nil {
				b.dst = make([][]int32, len(algs))
			}
			if b.dst[c] == nil {
				b.dst[c] = make([]int32, p.DeliverySize())
			}
			dst = b.dst[c]
		}
		err = verify(tr, cell, p, a, res, b.fab.Nodes(), dst)
	}
	if err != nil {
		s.err = fmt.Errorf("%s: %w", cell, err)
	}
	return s
}

func statsSince(now, before progcache.Stats) progcache.Stats {
	return progcache.Stats{
		Hits:        now.Hits - before.Hits,
		Misses:      now.Misses - before.Misses,
		Coalesced:   now.Coalesced - before.Coalesced,
		Compiles:    now.Compiles - before.Compiles,
		Tier2Hits:   now.Tier2Hits - before.Tier2Hits,
		Tier2Stores: now.Tier2Stores - before.Tier2Stores,
	}
}

func (b *bench) do(c int) sample {
	switch b.w.kind {
	case coldProc:
		dir := b.newDir("cold")
		defer os.RemoveAll(dir)
		return b.spawn("cold", c, dir)
	case tier2Proc:
		return b.spawn("tier2", c, b.dir)
	}
	return b.inProcess(c)
}

// measure runs the closed loop: one client, in rounds of one request
// per cell in a seed-shuffled order, so every cell gets an equal share.
// It runs rounds rounds, or when rounds is 0 stops after the round that
// reaches budget.
func (b *bench) measure(budget time.Duration, rounds int) []sample {
	var out []sample
	start := time.Now()
	for r := 0; rounds == 0 && (r == 0 || time.Since(start) < budget) || r < rounds; r++ {
		for _, c := range b.rng.Perm(len(algs)) {
			out = append(out, b.do(c))
		}
	}
	return out
}

// metric is one named measurement, printed and reported with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricList struct {
	names []string
	m     map[string]metric
}

func (l *metricList) add(name string, value float64, unit string) {
	if l.m == nil {
		l.m = map[string]metric{}
	}
	l.names = append(l.names, name)
	l.m[name] = metric{value, unit}
}

// resultLine is the last line of output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func runWorkload(cfg config, stdout io.Writer) error {
	b, err := newBench(cfg)
	if err != nil {
		return err
	}
	defer os.RemoveAll(b.root)
	if cfg.trace == 1 {
		b.tr = &tracer{phase: "setup"}
	}
	setup, err := b.setup()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "workload %s: %s on torus %s, seed %d, GOMAXPROCS %d\n",
		b.w.name, strings.Join(algs, ", "), b.shape, cfg.seed, runtime.GOMAXPROCS(0))
	cells := b.printOversize(stdout)

	rounds := 0
	if cfg.smoke {
		rounds = (smokeRequests + len(algs) - 1) / len(algs)
	}
	tr := b.tr
	b.tr = nil
	// Restart the kernel's peak-RSS mark so that it covers the measured
	// pass only. Where that fails the peak includes the set-up.
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: peak RSS includes the set-up:", err)
	}
	gc0, cpu0 := cpuSeconds()
	samples := b.measure(time.Duration(cfg.seconds*float64(time.Second)), rounds)
	gc1, cpu1 := cpuSeconds()
	peakKiB, err := peakRSSKiB()
	if err != nil {
		return err
	}
	b.tr = tr
	byCell := make([][]float64, len(algs))
	for _, s := range samples {
		if s.err == nil {
			byCell[s.cell] = append(byCell[s.cell], float64(s.reqNs)/1e6)
		}
	}
	for c := range cells {
		cells[c].ReqMsP50 = quantile(byCell[c], 0.5)
	}

	all := samples
	var ms metricList
	if cfg.trace == 0 {
		ms = b.endToEnd(samples, setup, peakKiB)
	} else {
		tr.phase = "measure"
		traced := b.measure(0, max(1, len(samples)/tracedShare/len(algs)))
		all = append(all, traced...)
		if ms, err = b.perLayer(samples, traced, ratio(gc1-gc0, cpu1-cpu0), cells, stdout); err != nil {
			return err
		}
		path := cfg.traceOut
		if path == "" {
			path = filepath.Join(buildDir, fmt.Sprintf("trace-%s-seed%d.json", b.w.name, cfg.seed))
		}
		if err := tr.writeChrome(path, "torusx benchmark "+b.w.name); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "trace: %d spans written to %s\n", len(tr.spans), path)
	}

	line := resultLine{Correct: true, Attempted: len(all), Metrics: ms.m}
	var errs []string
	for _, s := range all {
		if s.err != nil {
			line.Failed++
			line.Correct = false
			if len(errs) < 10 {
				errs = append(errs, s.err.Error())
			}
		}
	}
	for _, e := range errs {
		fmt.Fprintln(stdout, "failed:", e)
	}
	for _, name := range ms.names {
		fmt.Fprintf(stdout, "%-34s %14.6g %s\n", name, ms.m[name].Value, ms.m[name].Unit)
	}
	failRatio := float64(line.Failed) / float64(line.Attempted)
	fmt.Fprintf(stdout, "%-34s %14.6g %s (%d of %d requests)\n", "fail_ratio", failRatio, "ratio", line.Failed, line.Attempted)

	out := cfg.out
	if out == "" {
		out = filepath.Join(buildDir, fmt.Sprintf("results-%s-seed%d-trace%d.json", b.w.name, cfg.seed, cfg.trace))
	}
	res := map[string]any{
		"workload": b.w.name, "shape": b.shape, "seed": cfg.seed, "seconds": cfg.seconds,
		"trace": cfg.trace, "smoke": cfg.smoke,
		"host": map[string]any{"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
			"go": runtime.Version(), "os": runtime.GOOS, "arch": runtime.GOARCH},
		"attempted": line.Attempted, "failed": line.Failed, "fail_ratio": failRatio, "errors": errs,
		"setup_s": setup.Seconds(), "cells": cells, "metrics": ms.m,
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "results:", out)
	data, err = json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", data)
	return err
}

// cellInfo is one cell's sizes, reported in the results JSON.
type cellInfo struct {
	Alg        string  `json:"alg"`
	ProgramMiB float64 `json:"program_mib"`
	MovedMiB   float64 `json:"bytes_moved_mib"`
	Oversize   bool    `json:"oversize"`
	ReqMsP50   float64 `json:"req_ms_p50,omitempty"`
	MemmoveGBs float64 `json:"memmove_GBps,omitempty"`
	ReplayGBs  float64 `json:"replay_GBps,omitempty"`
}

// printOversize prints each cell's compiled size against progcache's
// shard budget: a program over it is never kept in memory, so every
// BuildProgram of that cell reloads or recompiles it.
func (b *bench) printOversize(w io.Writer) []cellInfo {
	cells := make([]cellInfo, len(algs))
	for c, alg := range algs {
		r := b.compiled[c]
		cells[c] = cellInfo{Alg: alg, ProgramMiB: mib(r.ProgramBytes), MovedMiB: mib(r.BytesMoved),
			Oversize: r.ProgramBytes > shardBudget}
		verdict := "kept in memory"
		if cells[c].Oversize {
			verdict = "over budget, never kept in memory"
		}
		fmt.Fprintf(w, "program %s@%s: %.1f MiB against the %d MiB shard budget, %s; moves %.2f MiB per replay\n",
			alg, b.shape, cells[c].ProgramMiB, shardBudget>>20, verdict, cells[c].MovedMiB)
	}
	return cells
}

func (b *bench) endToEnd(samples []sample, setup time.Duration, selfRSSKiB int64) metricList {
	var lat, rss []float64
	total := 0.0
	for _, s := range samples {
		if s.err == nil {
			lat = append(lat, float64(s.reqNs)/1e6)
			total += float64(s.reqNs) / 1e9
		}
		if s.rssKiB > 0 {
			rss = append(rss, float64(s.rssKiB)/1024)
		}
	}
	peak := float64(selfRSSKiB) / 1024
	if b.w.kind == coldProc || b.w.kind == tier2Proc {
		peak = quantile(rss, 0.5)
	}
	var ms metricList
	ms.add("req_ms_p50", quantile(lat, 0.5), "ms")
	ms.add("req_ms_p90", quantile(lat, 0.9), "ms")
	ms.add("req_per_s", ratio(float64(len(lat)), total), "1/s")
	ms.add("peak_rss_mib", peak, "MiB")
	ms.add("setup_s", setup.Seconds(), "s")
	return ms
}

func (b *bench) perLayer(untraced, traced []sample, gcFrac float64, cells []cellInfo, w io.Writer) (metricList, error) {
	tr := b.tr
	cacheable, cacheableStats, err := b.cacheableCells()
	if err != nil {
		return metricList{}, err
	}
	msOf := func(name string) float64 { return quantile(durations(tr.layer(name), ""), 0.5) / 1e6 }
	cellMs := func(name, cell string) float64 { return quantile(durations(tr.layer(name), cell), 0.5) / 1e6 }
	allocs := func(name string) float64 {
		var a []float64
		for _, s := range tr.layer(name) {
			a = append(a, float64(s.Allocs))
		}
		return quantile(a, 0.5)
	}

	var st progcache.Stats
	var progBytes, moved int64
	for _, s := range untraced {
		st = statsPlus(st, s.stats)
	}
	for _, r := range b.compiled {
		progBytes += r.ProgramBytes
		moved += r.BytesMoved
	}
	compiles, requests := float64(st.Compiles), float64(len(untraced))
	// replay-32x32's requests never look a program up; its hit ratios
	// come from the cacheable-cells lookups instead.
	if st.Hits+st.Misses+st.Coalesced == 0 {
		st = cacheableStats
	}
	lookups := float64(st.Hits + st.Misses + st.Coalesced)
	// Per-cell replay medians, summed over the cells, weigh every cell
	// equally, as the request mix does.
	var replay, into, serial, memmove float64
	for c, alg := range algs {
		r := cellMs("replay", alg)
		replay += r
		into += cellMs("replay-into", alg)
		serial += cellMs("replay-serial", alg)
		mm := memmoveNs(b.compiled[c].BytesMoved) / 1e6
		memmove += mm
		cells[c].MemmoveGBs = ratio(float64(b.compiled[c].BytesMoved)/1e6, mm)
		cells[c].ReplayGBs = ratio(float64(b.compiled[c].BytesMoved)/1e6, r)
		fmt.Fprintf(w, "roofline %s: memmove %.2f GB/s copying between two %.2f MiB []int32 buffers; replay %.2f GB/s\n",
			alg, cells[c].MemmoveGBs, cells[c].MovedMiB, cells[c].ReplayGBs)
	}
	replayGBps := ratio(float64(moved)/1e6, replay)
	memmoveGBps := ratio(float64(moved)/1e6, memmove)
	reqNs, layerNs, compileNs := tr.requestTotals("compile")

	// The in-process workloads' children all ran in set-up; a process
	// workload's GC share is its children's.
	procSamples := b.setupSamples
	if b.w.kind == coldProc || b.w.kind == tier2Proc {
		procSamples = untraced
		var fracs []float64
		for _, s := range untraced {
			if s.err == nil {
				fracs = append(fracs, s.rep.GCFrac)
			}
		}
		gcFrac = quantile(fracs, 0.5)
	}
	var starts []float64
	for _, s := range procSamples {
		if s.err == nil {
			starts = append(starts, float64(s.wallNs-s.rep.WorkNs)/1e6)
		}
	}

	var ms metricList
	ms.add("algorithm.plan_ms_p50", msOf("plan"), "ms")
	ms.add("algorithm.plan_allocs", allocs("plan"), "count")
	ms.add("exec.compile_ms_p50", msOf("compile"), "ms")
	ms.add("exec.compile_allocs", allocs("compile"), "count")
	ms.add("exec.compile_share", ratio(float64(compileNs), float64(reqNs)), "ratio")
	ms.add("exec.program_mib", mib(progBytes), "MiB")
	ms.add("exec.codec_encode_ms_p50", msOf("codec-encode"), "ms")
	ms.add("exec.codec_decode_ms_p50", msOf("codec-decode"), "ms")
	ms.add("progcache.lookup_us_p50", msOf("cache-lookup")*1e3, "us")
	ms.add("progcache.hit_ratio", ratio(float64(st.Hits), lookups), "ratio")
	ms.add("progcache.tier2_hit_ratio", ratio(float64(st.Tier2Hits), lookups), "ratio")
	ms.add("progcache.compiles_per_req", ratio(compiles, requests), "ratio")
	ms.add("progcache.tier2_store_ms_p50", msOf("tier2-store"), "ms")
	ms.add("progcache.tier2_load_ms_p50", msOf("tier2-load"), "ms")
	ms.add("progcache.tier2_file_mib", mib(dirBytes(b.dir)), "MiB")
	ms.add("progcache.cacheable_cells", float64(cacheable), "count")
	ms.add("exec.arena_acquire_us_p50", msOf("arena-acquire")*1e3, "us")
	ms.add("exec.replay_ms_p50", msOf("replay"), "ms")
	ms.add("exec.replay_into_ms_p50", msOf("replay-into"), "ms")
	ms.add("exec.materialize_share", 1-ratio(into, replay), "ratio")
	ms.add("exec.replay_serial_ms_p50", msOf("replay-serial"), "ms")
	ms.add("exec.parallel_speedup", ratio(serial, replay), "ratio")
	ms.add("exec.bytes_moved_mib", mib(moved), "MiB")
	ms.add("exec.replay_GBps", replayGBps, "GB/s")
	ms.add("host.memmove_GBps", memmoveGBps, "GB/s")
	ms.add("exec.roofline_ratio", ratio(replayGBps, memmoveGBps), "ratio")
	ms.add("exec.replay_allocs_per_req", allocs("replay"), "count")
	ms.add("runtime.gc_cpu_fraction", gcFrac, "ratio")
	ms.add("proc.start_ms_p50", quantile(starts, 0.5), "ms")
	for c, alg := range algs {
		ms.add("cell."+alg+".req_ms_p50", cells[c].ReqMsP50, "ms")
	}
	ms.add("trace.overhead_ratio", ratio(latencyP50(traced), latencyP50(untraced)), "ratio")
	ms.add("trace.coverage_ratio", ratio(float64(layerNs), float64(reqNs)), "ratio")
	return ms, nil
}

// cacheableCells counts the cells whose second BuildProgram returns the
// program the first one did, the ones the memory tier keeps, and
// returns the cache counters the second calls moved. The second call is
// traced as a cache-lookup. The process workloads' parent has not
// attached the disk tier yet, and attaches it first, so no call
// compiles.
func (b *bench) cacheableCells() (int, progcache.Stats, error) {
	var st progcache.Stats
	if b.w.kind == coldProc || b.w.kind == tier2Proc {
		if err := algorithm.SetCacheDir(b.dir); err != nil {
			return 0, st, err
		}
	}
	n := 0
	for c, alg := range algs {
		before := algorithm.CacheStats().Compiles
		p1, err := algorithm.BuildProgram(b.bld[c], b.fab, exec.Options{})
		if err != nil {
			return 0, st, err
		}
		first := algorithm.CacheStats()
		sp := b.tr.begin("cache-lookup", 0, alg)
		p2, err := algorithm.BuildProgram(b.bld[c], b.fab, exec.Options{})
		b.tr.end(sp)
		if err != nil {
			return 0, st, err
		}
		st = statsPlus(st, statsSince(algorithm.CacheStats(), first))
		if algorithm.CacheStats().Compiles != before {
			return 0, st, fmt.Errorf("cacheable check: %s compiled instead of loading from the disk tier", alg)
		}
		if p1 == p2 {
			n++
		}
		runtime.GC() // drop the mappings of programs the cache did not keep
	}
	return n, st, nil
}

func statsPlus(a, b progcache.Stats) progcache.Stats {
	a.Hits += b.Hits
	a.Misses += b.Misses
	a.Coalesced += b.Coalesced
	a.Compiles += b.Compiles
	a.Tier2Hits += b.Tier2Hits
	a.Tier2Stores += b.Tier2Stores
	return a
}

// runAll runs every workload in its own process, in order, and ends
// with one line merging their results under "<workload>/<metric>".
func runAll(cfg config, stdout io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	all := resultLine{Correct: true, Metrics: map[string]metric{}}
	for _, w := range workloads {
		args := []string{"-workload", w.name, "-seed", strconv.FormatInt(cfg.seed, 10),
			"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", strconv.Itoa(cfg.trace)}
		if cfg.smoke {
			args = append(args, "-smoke")
		}
		cmd := osexec.Command(self, args...)
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = io.MultiWriter(stdout, &out), os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("workload %s: %w", w.name, err)
		}
		text := strings.TrimSpace(out.String())
		var line resultLine
		if err := json.Unmarshal([]byte(text[strings.LastIndexByte(text, '\n')+1:]), &line); err != nil {
			return fmt.Errorf("workload %s: result line: %w", w.name, err)
		}
		all.Correct = all.Correct && line.Correct
		all.Attempted += line.Attempted
		all.Failed += line.Failed
		for k, v := range line.Metrics {
			all.Metrics[w.name+"/"+k] = v
		}
	}
	data, err := json.Marshal(all)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", data)
	return err
}

// latencyP50 is the median latency (ms) of the successful requests.
func latencyP50(samples []sample) float64 {
	var lat []float64
	for _, s := range samples {
		if s.err == nil {
			lat = append(lat, float64(s.reqNs)/1e6)
		}
	}
	return quantile(lat, 0.5)
}

// durations lists the durations (ns) of spans, only cell's unless cell
// is empty.
func durations(spans []span, cell string) []float64 {
	var out []float64
	for _, s := range spans {
		if cell == "" || s.Cell == cell {
			out = append(out, float64(s.Dur))
		}
	}
	return out
}

// quantile returns the q-quantile of xs by nearest rank; 0 when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mib(bytes int64) float64 { return float64(bytes) / (1 << 20) }

// syncDir flushes the files in dir to disk.
func syncDir(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			return err
		}
		err = f.Sync()
		f.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

// dirBytes sums the sizes of the files in dir.
func dirBytes(dir string) int64 {
	entries, _ := os.ReadDir(dir) // a missing directory holds nothing
	var n int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n
}

// peakRSSKiB reads the process's peak resident set (VmHWM).
func peakRSSKiB() (int64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(data), "\n") {
		if f := strings.Fields(l); len(f) >= 2 && f[0] == "VmHWM:" {
			return strconv.ParseInt(f[1], 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// cpuSeconds reads the runtime's GC and total CPU time estimates.
func cpuSeconds() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

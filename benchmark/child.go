package main

import (
	"fmt"
	"runtime"
	"time"

	"torusx/internal/algorithm"
	"torusx/internal/exec"
	"torusx/internal/progcache"
	"torusx/internal/topology"
)

// childReport is the one line of JSON a child process prints.
type childReport struct {
	Err string `json:"err,omitempty"`
	// WorkNs runs from the child's package initialisation to its report;
	// the rest of its wall time is process start and exit.
	WorkNs int64 `json:"work_ns"`
	// ReqNs runs from the first call into torusx until RunArena returns.
	ReqNs        int64           `json:"req_ns"`
	Stats        progcache.Stats `json:"stats"`
	GCFrac       float64         `json:"gc_cpu_fraction"`
	ProgramBytes int64           `json:"program_bytes"`
	BytesMoved   int64           `json:"bytes_moved"`
	Spans        []span          `json:"spans,omitempty"`
}

// procChild serves one request in a fresh process. A "cold" child
// points the cache at an empty directory, so BuildProgram plans,
// compiles and stores the program; a "tier2" child points it at a
// prewarmed one, so BuildProgram loads it. Both then replay once and
// check the delivery. A traced child runs the miss path as its separate
// public calls instead, so that each layer gets its own span.
func procChild(cfg config) childReport {
	var rep childReport
	fail := func(err error) childReport {
		rep.Err = err.Error()
		return rep
	}
	fab, err := parseShape(cfg.dims)
	if err != nil {
		return fail(err)
	}
	bld, err := algorithm.For(cfg.alg)
	if err != nil {
		return fail(err)
	}
	var tr *tracer
	if cfg.traced {
		tr = &tracer{phase: "measure"}
	}
	cell := cfg.alg
	fp := progcache.Fingerprint(exec.Options{})
	key := progcache.Key(bld.Name(), fab, fp)

	req := tr.begin("request", 0, cell)
	start := time.Now()
	var p *exec.Program
	var store *progcache.DiskStore
	if tr == nil {
		if err = algorithm.SetCacheDir(cfg.dir); err == nil {
			p, err = algorithm.BuildProgram(bld, fab, exec.Options{})
		}
	} else if store, err = progcache.NewDiskStore(cfg.dir); err == nil {
		if cfg.child == "cold" {
			p, err = tracedCompile(tr, req, cell, bld, fab, store, key, fp)
		} else {
			sp := tr.begin("tier2-load", req, cell)
			var ok bool
			p, ok = store.Load(key, fab, fp)
			tr.end(sp)
			if !ok {
				err = fmt.Errorf("tier-2 miss for %s", key)
			}
		}
	}
	if err != nil {
		tr.end(req)
		return fail(err)
	}
	a, res, err := replayRequest(tr, req, cell, p)
	rep.ReqNs = time.Since(start).Nanoseconds()
	tr.end(req)
	defer p.ReleaseArena(a)
	if err == nil {
		err = verify(tr, cell, p, a, res, fab.Nodes(), nil)
	}
	if err == nil && tr != nil && cfg.child == "cold" {
		err = codecDiagnostics(tr, cell, p, fab, fp)
	}
	if err != nil {
		return fail(err)
	}
	rep.Stats = algorithm.CacheStats()
	rep.ProgramBytes, rep.BytesMoved = p.SizeBytes(), p.BytesMoved()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.GCFrac = ms.GCCPUFraction
	if tr != nil {
		rep.Spans = tr.spans
	}
	rep.WorkNs = time.Since(processStart).Nanoseconds()
	return rep
}

// tracedCompile is BuildProgram's miss path as separate public calls:
// BuildSchedule, Compile, then the disk tier's Store.
func tracedCompile(tr *tracer, req int, cell string, bld algorithm.Builder, fab topology.Fabric,
	store *progcache.DiskStore, key string, fp uint64) (*exec.Program, error) {
	m := tr.mallocs()
	sp := tr.begin("plan", req, cell)
	sc, err := bld.BuildSchedule(fab)
	tr.end(sp)
	tr.setAllocs(sp, m)
	if err != nil {
		return nil, err
	}
	m = tr.mallocs()
	sp = tr.begin("compile", req, cell)
	p, err := exec.Compile(sc, exec.Options{})
	tr.end(sp)
	tr.setAllocs(sp, m)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("tier2-store", req, cell)
	err = store.Store(key, p, fp)
	tr.end(sp)
	return p, err
}

// codecDiagnostics times the codec on the program a traced cold child
// just compiled. The calls run as siblings after the request.
func codecDiagnostics(tr *tracer, cell string, p *exec.Program, fab topology.Fabric, fp uint64) error {
	sp := tr.begin("codec-encode", 0, cell)
	enc, err := exec.EncodeProgram(p, fp)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("codec-decode", 0, cell)
	_, err = exec.DecodeProgram(enc, fab, fp)
	tr.end(sp)
	return err
}

// replayRequest is the tail every request shares: AcquireArena, then
// RunArena with the default options (the parallel path). The caller
// releases the arena.
func replayRequest(tr *tracer, req int, cell string, p *exec.Program) (*exec.Arena, *exec.Result, error) {
	sp := tr.begin("arena-acquire", req, cell)
	a := p.AcquireArena()
	tr.end(sp)
	m := tr.mallocs()
	sp = tr.begin("replay", req, cell)
	res, err := p.RunArena(a, exec.Options{})
	tr.end(sp)
	tr.setAllocs(sp, m)
	return a, res, err
}

// verify checks a request's delivery with the oracle, outside the timed
// request. On a traced pass it then runs the diagnostic calls as
// siblings: ReplayInto into dst (allocated when nil), itself checked
// with the oracle, and a serial RunArena.
func verify(tr *tracer, cell string, p *exec.Program, a *exec.Arena, res *exec.Result, n int, dst []int32) error {
	sp := tr.begin("oracle-check", 0, cell)
	err := checkBuffers(res.Buffers, n)
	tr.end(sp)
	if err != nil || tr == nil {
		return err
	}
	if dst == nil {
		dst = make([]int32, p.DeliverySize())
	}
	sp = tr.begin("replay-into", 0, cell)
	err = p.ReplayInto(a, dst, exec.Options{})
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("oracle-check", 0, cell)
	err = checkDense(p, dst, n)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("replay-serial", 0, cell)
	_, err = p.RunArena(a, exec.Options{Serial: true})
	tr.end(sp)
	return err
}

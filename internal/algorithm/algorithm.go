// Package algorithm is the registry of schedule builders: every
// all-to-all algorithm and collective in this repository is exposed as
// a Builder over one emitter per fabric kind, which streams the
// schedule IR of internal/schedule step by step into the shared
// executor in internal/exec, which checks, replays and measures it.
// This is the seam that makes the paper's comparisons
// apples-to-apples — torusx.Compare, cmd/aapetrace -alg and
// cmd/aapetab -alg all resolve a name here and run the result through
// the same executor and timing backends.
//
// Builders target topology.Fabric, not a concrete topology: an
// algorithm declares which fabric kinds it supports (Supports), and
// the same registry serves torus and dragonfly requests through one
// executor and one program cache.
package algorithm

import (
	"fmt"
	"sort"

	"torusx/internal/baseline"
	"torusx/internal/collective"
	"torusx/internal/dfly"
	"torusx/internal/exchange"
	"torusx/internal/exec"
	"torusx/internal/obs"
	"torusx/internal/progcache"
	"torusx/internal/schedule"
	"torusx/internal/topology"
	"torusx/internal/traffic"
)

// Builder lowers an algorithm to a schedule on a concrete fabric. A
// returned schedule may be structural (block counts only) or
// payload-annotated (replayable by the executor); schedule.HasPayload
// distinguishes the two.
type Builder interface {
	// Name is the registry key (e.g. "proposed", "direct").
	Name() string
	// Supports reports whether the algorithm is defined on f's fabric
	// kind. BuildSchedule on an unsupported fabric returns an error.
	Supports(f topology.Fabric) bool
	// BuildSchedule emits the algorithm's schedule on f, or an error if
	// f does not satisfy the algorithm's preconditions (wrong fabric
	// kind, or e.g. the proposed exchange's multiple-of-four dimensions).
	BuildSchedule(f topology.Fabric) (*schedule.Schedule, error)
	// EmitSchedule emits the schedule BuildSchedule returns into sink,
	// step by step, with the same errors. BuildSchedule is EmitSchedule
	// into a collecting sink. BuildProgram compiles EmitSchedule, and
	// its programs' Schedule() re-plans through it too.
	EmitSchedule(f topology.Fabric, sink schedule.Sink) error
}

// fabricBuilder adapts per-fabric emitters to the Builder interface; a
// nil function means the fabric kind is unsupported. The registry
// registers each package's emitter directly, binding the argument of
// the two that take one: broadcast's root and dimexchange's traffic.
type fabricBuilder struct {
	name      string
	torus     func(t *topology.Torus, sink schedule.Sink) error
	dragonfly func(d *topology.Dragonfly, sink schedule.Sink) error
}

func (b fabricBuilder) Name() string { return b.name }

func (b fabricBuilder) Supports(f topology.Fabric) bool {
	switch f.(type) {
	case *topology.Torus:
		return b.torus != nil
	case *topology.Dragonfly:
		return b.dragonfly != nil
	}
	return false
}

func (b fabricBuilder) BuildSchedule(f topology.Fabric) (*schedule.Schedule, error) {
	return schedule.Collect(f, b.EmitSchedule)
}

func (b fabricBuilder) EmitSchedule(f topology.Fabric, sink schedule.Sink) error {
	switch ff := f.(type) {
	case *topology.Torus:
		if b.torus != nil {
			return b.torus(ff, sink)
		}
	case *topology.Dragonfly:
		if b.dragonfly != nil {
			return b.dragonfly(ff, sink)
		}
	}
	return fmt.Errorf("algorithm: %q does not support fabric %s", b.name, f.Fingerprint())
}

// cache memoizes compiled programs across every BuildProgram caller in
// the process — torusx.Compare, the cmd tools, and any embedding
// service share one serving-layer cache keyed by (builder name, fabric
// fingerprint, compile-options fingerprint). Compiled programs are
// immutable, so sharing one *exec.Program between concurrent
// requesters is safe; each replays through its own Arena.
var cache = progcache.New(progcache.DefaultMaxBytes)

func init() {
	// Export the process cache on the default obs registry; the metrics
	// dumps, and aapebench's -pprof endpoint at /debug/vars, read these
	// live instead of printed snapshots.
	cache.RegisterMetrics(obs.Default(), "progcache")
}

// BuildProgram resolves an algorithm to its compiled form on f: the
// builder's EmitSchedule streamed into exec.CompileStream, so the
// schedule is lowered and checked while it is still being built.
// Results are memoized in a process-wide progcache.Cache, so a warm
// call performs no schedule build and no compile — concurrent cold
// calls for one (algorithm, fabric) are singleflighted into exactly one
// compile. The cache records the same emitter, collected whole, as
// every served program's schedule source, so Program.Schedule()
// re-plans it on demand. This is
// the compile-once entry point the command-line tools and
// torusx.Compare run through; callers that replay many times hold on
// to the returned Program and acquire/release its Arenas. opt.Request
// (nil-safe) receives a miss's wall-clock decomposition as a "compile"
// stage span and, inside it, the builder's "plan" span, which overlaps
// Compile's own passes.
//
// The cache key uses b.Name(), so two distinct Builder implementations
// registered under one name would alias; registry builders are unique
// by construction.
func BuildProgram(b Builder, f topology.Fabric, opt exec.Options) (*exec.Program, error) {
	fp := progcache.Fingerprint(opt)
	key := progcache.Key(b.Name(), f, fp)
	source := func() (*schedule.Schedule, error) { return schedule.Collect(f, b.EmitSchedule) }
	return cache.GetOrCompileTiered(key, f, fp, opt.Request, source, func() (*exec.Program, error) {
		csp := opt.Request.Stage(obs.StageCompile)
		defer csp.End()
		return exec.CompileStream(f, func(s schedule.Sink) error { return b.EmitSchedule(f, s) }, opt)
	})
}

// SetCacheDir attaches a disk-backed second tier at dir to the
// process-wide program cache: in-memory misses load serialized
// programs from dir before compiling, and fresh compiles are written
// back. The cmd tools call this from their -progcache-dir flag. An
// empty dir is a no-op; call at most once, at startup.
func SetCacheDir(dir string) error {
	if dir == "" {
		return nil
	}
	store, err := progcache.NewDiskStore(dir)
	if err != nil {
		return err
	}
	cache.SetTier2(store)
	return nil
}

// CacheStats snapshots the process-wide program cache counters —
// surfaced by aapebench's cache footer and useful for embedding
// services that want hit-rate telemetry. The same counters are
// exported continuously as "progcache.*" on the default obs registry.
func CacheStats() progcache.Stats { return cache.Stats() }

var registry = map[string]Builder{}

func registerTorus(name string, emit func(t *topology.Torus, sink schedule.Sink) error) {
	registry[name] = fabricBuilder{name: name, torus: emit}
}

func registerDragonfly(name string, emit func(d *topology.Dragonfly, sink schedule.Sink) error) {
	registry[name] = fabricBuilder{name: name, dragonfly: emit}
}

// Every registry cell is an emitter: BuildProgram streams its steps
// into exec.CompileStream as they are built, and BuildSchedule collects
// them.
func init() {
	// The proposed Suh–Shin n+2-phase exchange, generated structurally
	// (no payloads: O(steps·nodes), scales to tori far beyond what the
	// block-level simulator can hold).
	registerTorus("proposed", exchange.EmitStructural)
	// The proposed exchange with every transfer's payload, so the
	// shared executor can replay and delivery-verify it end to end. The
	// dense builder emits the schedule the block-level simulator
	// (oracle.Run with RecordPayloads) records, which its tests hold
	// it to.
	registerTorus("proposed-sim", exchange.EmitPayload)
	// The direct (id-shift) exchange exists on both fabrics: N−1 steps
	// of minimal-route sends with shared links priced by the executor.
	registry["direct"] = fabricBuilder{name: "direct", torus: baseline.EmitDirect, dragonfly: dfly.EmitDirect}
	registerTorus("ring", baseline.EmitRing)
	registerTorus("factored", baseline.EmitFactored)
	registerTorus("logtime", baseline.EmitLogTime)
	// The broadcast from root 0: by symmetry its cost is every root's.
	registerTorus("broadcast", func(t *topology.Torus, sink schedule.Sink) error {
		return collective.EmitBroadcast(t, 0, sink)
	})
	// The ring all-gather, P(<d) blocks per node in every step of
	// dimension d.
	registerTorus("allgather", collective.EmitAllGather)
	// The ring reduce-scatter, a−1 distance-1 steps per dimension:
	// torusx.AllReduce's cost is this program's plus allgather's.
	registerTorus("reducescatter", collective.EmitReduceScatter)
	// The Swing allreduce: swung-distance recursive halving per
	// dimension, power-of-two tori only.
	registerTorus("swing", collective.EmitSwing)
	// The dragonfly port-ordered exchange — the dimension-ordered
	// counterpart of the proposed torus algorithm on the second fabric,
	// over the full matrix in origin-major order.
	registerDragonfly("dimexchange", func(d *topology.Dragonfly, sink schedule.Sink) error {
		return dfly.EmitDimExchange(d, traffic.Full(d.Nodes()).Blocks(), sink)
	})
}

// For returns the builder registered under name.
func For(name string) (Builder, error) {
	b, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("algorithm: unknown algorithm %q (have %v)", name, Names())
	}
	return b, nil
}

// Names lists the registered algorithm names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Supporting lists, sorted, the registered algorithms defined on f's
// fabric kind — the cross product the registry smoke tests and
// aapebench's -smoke sweep iterate.
func Supporting(f topology.Fabric) []string {
	var out []string
	for name, b := range registry {
		if b.Supports(f) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

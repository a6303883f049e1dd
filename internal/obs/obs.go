// Package obs is the process-observability layer of the repository:
// where internal/telemetry records *model time* (the cost-model
// microseconds a schedule would take on the paper's machine), obs
// records *wall-clock* reality — how long this process actually spent
// planning, compiling, waiting on a singleflight, acquiring an arena
// and replaying, and how the serving-layer caches are behaving right
// now. It is the metering the ROADMAP's `aaped` service needs before
// the serving layer can sit behind a network front door with p50/p99
// SLOs.
//
// The package has two halves:
//
//   - a Registry of named metrics — monotone Counters, settable
//     Gauges, pull-based CounterFunc/GaugeFunc hooks reading live
//     subsystem state (cache occupancy, arena-pool traffic), and
//     log-scale latency Histograms with deterministic p50/p95/p99
//     extraction — exported as Prometheus text (WritePrometheus), a
//     compact human dump (WriteText) and a Snapshot, which aapebench's
//     -pprof endpoint publishes through expvar;
//   - request-scoped tracing (StartRequest → Stage spans → Finish)
//     that times one request's walk through the pipeline and both
//     feeds the latency histograms and converts into telemetry.Events
//     (Request.Events), so a single Perfetto trace shows wall-clock
//     pipeline spans alongside the model-time stream.
//
// Like telemetry, obs must never tax a run that did not ask for it: a
// nil *Request disables every span behind one branch with zero
// allocations (guarded by AllocsPerRun tests in internal/exec), and
// registered metrics are lock-free atomics on the update path. Nor may
// it tax a process's footprint: the package links no network stack
// (no expvar, no net/http), so every binary that imports the library
// starts without one.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is
// ready to use; updates are lock-free.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d (d must be >= 0 to keep the counter
// monotone; negative deltas are a caller bug).
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable point-in-time measurement.
type Gauge struct {
	bits atomic.Uint64
}

// Set records the gauge's current value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the last value Set.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Registry holds a process's (or a test's) named metrics. Metric
// registration takes a lock; metric *updates* never do — Counter,
// Gauge and Histogram mutate through atomics, and the pull-based
// CounterFunc/GaugeFunc hooks are only invoked at snapshot/dump time.
// The zero value is not usable; construct with NewRegistry or use the
// process-wide Default.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	counterFns map[string]func() int64
	gauges     map[string]*Gauge
	gaugeFns   map[string]func() float64
	hists      map[string]*Histogram

	reqID atomic.Int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		counterFns: map[string]func() int64{},
		gauges:     map[string]*Gauge{},
		gaugeFns:   map[string]func() float64{},
		hists:      map[string]*Histogram{},
	}
}

// defaultRegistry is the process-wide registry every subsystem
// (progcache, exec's arenas and replay counters, the cmd tools)
// registers into.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// Counter returns the counter registered under name, creating it on
// first use. Repeat calls with one name share one counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the settable gauge registered under name, creating it
// on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// CounterFunc registers fn as a pull-based counter: fn is read at
// snapshot time and must be monotone and safe for concurrent calls.
// This is how subsystems with their own atomic counters (the program
// cache, the arenas) export live values without double counting.
// Re-registering a name replaces the hook.
func (r *Registry) CounterFunc(name string, fn func() int64) {
	r.mu.Lock()
	r.counterFns[name] = fn
	r.mu.Unlock()
}

// GaugeFunc registers fn as a pull-based gauge (current cache bytes,
// entry counts); read at snapshot time, concurrency-safe. The hook
// must tolerate being called at any moment for the rest of the
// process's life. Re-registering a name replaces the hook.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	r.mu.Lock()
	r.gaugeFns[name] = fn
	r.mu.Unlock()
}

// Histogram returns the latency histogram registered under name,
// creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of every metric: counters (static
// and pull-based merged), gauges likewise, and histogram snapshots.
type Snapshot struct {
	Counters map[string]int64
	Gauges   map[string]float64
	Hists    map[string]HistSnapshot
}

// Snapshot reads every registered metric, invoking the pull hooks.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters: make(map[string]int64, len(r.counters)+len(r.counterFns)),
		Gauges:   make(map[string]float64, len(r.gauges)+len(r.gaugeFns)),
		Hists:    make(map[string]HistSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, fn := range r.counterFns {
		s.Counters[name] = fn()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, fn := range r.gaugeFns {
		s.Gauges[name] = fn()
	}
	for name, h := range r.hists {
		s.Hists[name] = h.Snapshot()
	}
	return s
}

// sortedKeys returns m's keys in sorted order, so every dump format is
// deterministic for a given metric population.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Package benchfmt defines the on-disk schema of BENCH_exec.json, the
// benchmark ledger emitted by cmd/aapebench: one entry per
// (algorithm, torus shape) with the executor's timing (ns/op, allocs)
// next to the deterministic cost counters (startups, blocks, hops,
// rearranged blocks). The deterministic fields pin regressions in
// golden tests — they never vary across machines — while the timing
// fields chart the perf trajectory per host. Tools and tests decode
// with Decode and gate on Validate.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// Schema is the format identifier of the current layout.
const Schema = "torusx-bench/v1"

// File is one benchmark ledger.
type File struct {
	// Schema must equal the Schema constant.
	Schema string `json:"schema"`
	// GoOS/GoArch/GoMaxProcs describe the host the timings came from.
	GoOS       string `json:"goos"`
	GoArch     string `json:"goarch"`
	GoMaxProcs int    `json:"gomaxprocs"`
	// Entries is one row per (algorithm, shape) swept.
	Entries []Entry `json:"entries"`
}

// Entry is one benchmarked (algorithm, shape) cell.
type Entry struct {
	Alg  string `json:"alg"`
	Dims []int  `json:"dims"`
	// Traffic is the traffic-matrix spec the cell replayed (see
	// internal/traffic.ParseSpec); empty for the dense all-to-all
	// sweeps, so pre-sparse ledgers decode unchanged.
	Traffic string `json:"traffic,omitempty"`
	// Parallel records whether the executor ran its fan-out path.
	Parallel bool `json:"parallel"`
	// Compiled records whether the timing is the compiled
	// (compile-once, replay-many) fast path: the schedule was lowered
	// by exec.Compile outside the timed region and each op replayed a
	// reused arena. Absent (false) in pre-compile ledgers.
	Compiled bool `json:"compiled,omitempty"`

	// Timing fields: host-dependent, never compared against goldens.
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// Variance of the per-sample timings across the cell's repeat runs
	// (all zero when the sweep took a single sample — e.g. older
	// ledgers, which decode unchanged). NsStddev is the population
	// standard deviation.
	NsMin    float64 `json:"ns_min,omitempty"`
	NsMax    float64 `json:"ns_max,omitempty"`
	NsStddev float64 `json:"ns_stddev,omitempty"`
	// NsP50/NsP99 are nearest-rank percentiles of the same repeat
	// timings (Percentile), the ledger's tail-latency columns. Zero in
	// pre-observability and single-sample ledgers, which decode
	// unchanged.
	NsP50 float64 `json:"ns_p50,omitempty"`
	NsP99 float64 `json:"ns_p99,omitempty"`
	// Samples is the number of repeat timings behind the variance
	// fields (0 for single-sample ledgers).
	Samples int `json:"samples,omitempty"`
	// CompileNs/CompileAllocs time obtaining the compiled program for
	// the cell (schedule build + exec.Compile, via the serving-layer
	// cache): the cost a cold request pays once and warm requests
	// amortize to ~nothing. Absent (zero) in uncompiled sweeps and
	// pre-cache ledgers.
	CompileNs     float64 `json:"compile_ns,omitempty"`
	CompileAllocs int64   `json:"compile_allocs,omitempty"`
	// CompileParallelNs times exec.Compile alone on a prebuilt schedule
	// — the lowering the compiler fans out over the worker pool, with
	// the schedule build excluded — the figure the cold-start gate
	// bounds. Zero in uncompiled sweeps, in pre-serialization ledgers,
	// and for builders that emit programs directly.
	CompileParallelNs float64 `json:"compile_parallel_ns,omitempty"`
	// Tier2LoadNs times loading the cell's program from a warm
	// disk-cache tier (file read + versioned decode), the cost a cold
	// process pays instead of CompileNs when a previous process already
	// compiled the shape. Zero when the sweep did not measure the disk
	// tier.
	Tier2LoadNs float64 `json:"tier2_load_ns,omitempty"`

	// Deterministic fields: the executor's Measure, identical on every
	// machine, compared field-for-field in golden tests.
	Steps      int `json:"steps"`
	Blocks     int `json:"blocks"`
	Hops       int `json:"hops"`
	Rearranged int `json:"rearranged"`
	// MaxSharing is the largest link-sharing serialization factor of
	// any step.
	MaxSharing int `json:"max_sharing"`
	// BytesMoved is the number of bytes the replay physically copied
	// per op on the mode it ran (Program.BytesMoved): deterministic —
	// it depends only on the compiled plan, never the host — and gated
	// by Compare so a planner change that silently starts copying more
	// fails the bench-regression job. Zero in uncompiled sweeps and
	// pre-descriptor ledgers, which decode unchanged.
	BytesMoved int64 `json:"bytes_moved,omitempty"`
}

// Key identifies an entry's cell: algorithm plus shape, plus the
// traffic spec when the cell replayed a sparse matrix — so a sparse
// sweep can never collide with (or be compared against) the dense cell
// of the same algorithm and shape.
func (e *Entry) Key() string {
	s := e.Alg
	for i, d := range e.Dims {
		if i == 0 {
			s += "@"
		} else {
			s += "x"
		}
		s += fmt.Sprint(d)
	}
	if e.Traffic != "" {
		s += "+" + e.Traffic
	}
	return s
}

// Validate checks the schema invariants: correct schema tag, a sane
// host stanza, and per-entry well-formedness (named algorithm,
// positive dims, positive timings, positive step count).
func (f *File) Validate() error {
	if f.Schema != Schema {
		return fmt.Errorf("benchfmt: schema %q, want %q", f.Schema, Schema)
	}
	if f.GoOS == "" || f.GoArch == "" {
		return fmt.Errorf("benchfmt: missing goos/goarch")
	}
	if f.GoMaxProcs < 1 {
		return fmt.Errorf("benchfmt: gomaxprocs %d < 1", f.GoMaxProcs)
	}
	if len(f.Entries) == 0 {
		return fmt.Errorf("benchfmt: no entries")
	}
	seen := make(map[string]bool, len(f.Entries))
	for i := range f.Entries {
		e := &f.Entries[i]
		if e.Alg == "" {
			return fmt.Errorf("benchfmt: entry %d has no algorithm", i)
		}
		if len(e.Dims) == 0 {
			return fmt.Errorf("benchfmt: entry %d (%s) has no dims", i, e.Alg)
		}
		for _, d := range e.Dims {
			if d < 1 {
				return fmt.Errorf("benchfmt: entry %d (%s) has dim %d < 1", i, e.Alg, d)
			}
		}
		if e.NsPerOp <= 0 {
			return fmt.Errorf("benchfmt: entry %d (%s) ns_per_op %v <= 0", i, e.Key(), e.NsPerOp)
		}
		if err := e.validateVariance(); err != nil {
			return fmt.Errorf("benchfmt: entry %d (%s): %v", i, e.Key(), err)
		}
		if e.AllocsPerOp < 0 || e.BytesPerOp < 0 {
			return fmt.Errorf("benchfmt: entry %d (%s) negative alloc stats", i, e.Key())
		}
		if e.CompileNs < 0 || e.CompileAllocs < 0 {
			return fmt.Errorf("benchfmt: entry %d (%s) negative compile stats", i, e.Key())
		}
		if e.CompileParallelNs < 0 || e.Tier2LoadNs < 0 {
			// No cross-field bound against CompileNs: on a warm process
			// cache compile_ns measures a cache hit (microseconds) while
			// compile_parallel_ns always measures a genuine compile.
			return fmt.Errorf("benchfmt: entry %d (%s) negative cold-start stats", i, e.Key())
		}
		if e.Steps < 1 {
			return fmt.Errorf("benchfmt: entry %d (%s) steps %d < 1", i, e.Key(), e.Steps)
		}
		if e.Blocks < 0 || e.Hops < 0 || e.Rearranged < 0 {
			return fmt.Errorf("benchfmt: entry %d (%s) negative cost counter", i, e.Key())
		}
		if e.MaxSharing < 1 {
			return fmt.Errorf("benchfmt: entry %d (%s) max_sharing %d < 1", i, e.Key(), e.MaxSharing)
		}
		if e.BytesMoved < 0 {
			return fmt.Errorf("benchfmt: entry %d (%s) bytes_moved %d < 0", i, e.Key(), e.BytesMoved)
		}
		if seen[e.Key()] {
			return fmt.Errorf("benchfmt: duplicate entry %s", e.Key())
		}
		seen[e.Key()] = true
	}
	return nil
}

// validateVariance checks the optional spread fields as a group:
// either absent (all zero, single-sample ledgers) or coherent —
// min <= max, non-negative stddev, at least two samples, and the
// headline ns/op inside the sampled envelope. The envelope invariant
// caught a real producer bug: per-sample timings taken as raw single
// runs (fixed ReadMemStats overhead and all) sat far above a
// benchmark-grade amortized ns/op on sub-microsecond cells, so ledgers
// claimed ns_per_op < ns_min.
func (e *Entry) validateVariance() error {
	if e.Samples == 0 && e.NsMin == 0 && e.NsMax == 0 && e.NsStddev == 0 {
		return nil
	}
	if e.Samples < 2 {
		return fmt.Errorf("variance fields need samples >= 2, have %d", e.Samples)
	}
	if e.NsMin <= 0 || e.NsMax < e.NsMin {
		return fmt.Errorf("bad ns_min/ns_max %v/%v", e.NsMin, e.NsMax)
	}
	if e.NsPerOp < e.NsMin || e.NsPerOp > e.NsMax {
		return fmt.Errorf("ns_per_op %v outside sampled [ns_min, ns_max] = [%v, %v]", e.NsPerOp, e.NsMin, e.NsMax)
	}
	if e.NsStddev < 0 {
		return fmt.Errorf("negative ns_stddev %v", e.NsStddev)
	}
	if e.NsP50 != 0 || e.NsP99 != 0 {
		if e.NsP50 < e.NsMin || e.NsP50 > e.NsMax {
			return fmt.Errorf("ns_p50 %v outside sampled [ns_min, ns_max] = [%v, %v]", e.NsP50, e.NsMin, e.NsMax)
		}
		if e.NsP99 < e.NsP50 || e.NsP99 > e.NsMax {
			return fmt.Errorf("ns_p99 %v outside [ns_p50, ns_max] = [%v, %v]", e.NsP99, e.NsP50, e.NsMax)
		}
	}
	return nil
}

// SampleStats summarizes repeat timings into the variance fields,
// returning min, max and the population standard deviation.
func SampleStats(ns []float64) (min, max, stddev float64) {
	if len(ns) == 0 {
		return 0, 0, 0
	}
	min, max = ns[0], ns[0]
	sum := 0.0
	for _, v := range ns {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
		sum += v
	}
	mean := sum / float64(len(ns))
	var sq float64
	for _, v := range ns {
		d := v - mean
		sq += d * d
	}
	stddev = math.Sqrt(sq / float64(len(ns)))
	return min, max, stddev
}

// Percentile returns the nearest-rank q-quantile (0 < q <= 1) of ns —
// the value at rank ceil(q*len), the same estimator internal/obs uses
// for its latency histograms, so the ledger's p50/p99 columns and a
// -metrics-out dump agree on what a percentile means. The input is
// sorted in place. Returns 0 on an empty slice.
func Percentile(ns []float64, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	sort.Float64s(ns)
	rank := int(math.Ceil(q * float64(len(ns))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(ns) {
		rank = len(ns)
	}
	return ns[rank-1]
}

// Write encodes the ledger as indented JSON.
func (f *File) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// Decode reads and validates a ledger.
func Decode(r io.Reader) (*File, error) {
	var f File
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("benchfmt: %v", err)
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return &f, nil
}

// AllocSlack is the fixed absolute headroom Compare grants on top of
// the percentage tolerance: a cell only regresses when it exceeds the
// baseline by tolerance percent AND allocSlack allocations. Without
// it, single-digit baselines (the compiled fast path allocates ~1–8
// objects per op) would flag one incidental allocation as a >25%
// regression.
const AllocSlack = 16

// Delta is one cell's change against a baseline ledger.
type Delta struct {
	Key      string
	Old, New *Entry
	// NsDeltaPct and AllocsDeltaPct are percentage changes relative to
	// the baseline (negative = improvement); +Inf when the baseline was
	// zero and the current value is not.
	NsDeltaPct     float64
	AllocsDeltaPct float64
	// BytesDeltaPct is the percentage change in bytes_moved (only
	// meaningful when both cells measured it).
	BytesDeltaPct float64
	// Regressed reports that allocs/op or bytes_moved exceeded the
	// tolerance.
	Regressed bool
}

// Compare matches cur's entries against a baseline ledger by Key and
// reports per-cell deltas in cur's entry order. A cell regresses when
// its allocs/op exceed the baseline by more than tolerancePct percent
// plus AllocSlack allocations, or when its bytes_moved — a
// deterministic plan property, identical on every host — exceeds a
// measured baseline by more than tolerancePct percent. Timings are
// reported but never gated (they are host-dependent). Cells absent
// from the baseline, or whose baseline predates the bytes_moved
// column, are not gated on the missing figure — a new algorithm,
// shape or column is not a regression. Compare returns the keys of the
// cells absent from the baseline, in cur's entry order, as ungated, so
// that a caller names them rather than skipping them silently.
func Compare(old, cur *File, tolerancePct float64) (deltas []Delta, ungated []string, regressed bool) {
	oldBy := old.ByKey()
	for i := range cur.Entries {
		e := &cur.Entries[i]
		o, ok := oldBy[e.Key()]
		if !ok {
			ungated = append(ungated, e.Key())
			continue
		}
		d := Delta{Key: e.Key(), Old: o, New: e,
			NsDeltaPct:     pctDelta(o.NsPerOp, e.NsPerOp),
			AllocsDeltaPct: pctDelta(float64(o.AllocsPerOp), float64(e.AllocsPerOp)),
			BytesDeltaPct:  pctDelta(float64(o.BytesMoved), float64(e.BytesMoved)),
		}
		limit := float64(o.AllocsPerOp)*(1+tolerancePct/100) + AllocSlack
		if float64(e.AllocsPerOp) > limit {
			d.Regressed = true
			regressed = true
		}
		if o.BytesMoved > 0 && float64(e.BytesMoved) > float64(o.BytesMoved)*(1+tolerancePct/100) {
			d.Regressed = true
			regressed = true
		}
		deltas = append(deltas, d)
	}
	return deltas, ungated, regressed
}

func pctDelta(old, cur float64) float64 {
	if old == 0 {
		if cur == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (cur - old) / old * 100
}

// ByKey indexes the entries by Key for golden comparisons.
func (f *File) ByKey() map[string]*Entry {
	m := make(map[string]*Entry, len(f.Entries))
	for i := range f.Entries {
		m[f.Entries[i].Key()] = &f.Entries[i]
	}
	return m
}

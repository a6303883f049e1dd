package main

import (
	"expvar"
	"sync"

	"torusx/internal/obs"
)

// The expvar bridge: publishExpvar exposes a registry snapshot under
// one expvar name, so the -pprof endpoint (which mounts expvar at
// /debug/vars) serves the obs metrics with no extra wiring. The
// snapshot is taken per scrape — expvar.Func is pull-based — so the
// endpoint always reads live values. It lives here, in its only
// caller, so that no library package links expvar and the network
// stack it imports.

var publishMu sync.Mutex

// publishExpvar publishes r as the expvar variable name (rendered as
// the JSON of a Snapshot). expvar.Publish panics on duplicate names,
// so a name already published is left as it is and only the first
// registry wins — run publishes the Default registry under
// "torusx_obs", which makes repeats benign.
func publishExpvar(r *obs.Registry, name string) {
	publishMu.Lock()
	defer publishMu.Unlock()
	if expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() interface{} {
		s := r.Snapshot()
		// Flatten histograms to their headline numbers; the full bucket
		// vector is the Prometheus dump's job.
		hists := make(map[string]map[string]float64, len(s.Hists))
		for name, h := range s.Hists {
			hists[name] = map[string]float64{
				"count": float64(h.Count),
				"sum":   float64(h.Sum),
				"p50":   h.P50(),
				"p95":   h.P95(),
				"p99":   h.P99(),
			}
		}
		return map[string]interface{}{
			"counters":   s.Counters,
			"gauges":     s.Gauges,
			"histograms": hists,
		}
	}))
}

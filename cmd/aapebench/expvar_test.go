package main

import (
	"encoding/json"
	"expvar"
	"net/http/httptest"
	"testing"

	"torusx/internal/obs"
)

// TestPublishExpvarServesRegistry: the expvar bridge publishes the
// default registry as torusx_obs, the way -pprof does, so /debug/vars
// serves the registry's live counters and histogram headlines; a
// repeat publish under the name is a no-op rather than expvar's
// duplicate-name panic.
func TestPublishExpvarServesRegistry(t *testing.T) {
	reg := obs.Default()
	reg.Counter("aapebench.expvar_test").Add(3)
	reg.Histogram("stage.replay.ns").Observe(1000)
	publishExpvar(reg, "torusx_obs")
	publishExpvar(obs.NewRegistry(), "torusx_obs")
	reg.Counter("aapebench.expvar_test").Add(2)

	rec := httptest.NewRecorder()
	expvar.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/vars", nil))
	var vars struct {
		Obs struct {
			Counters   map[string]int64
			Histograms map[string]map[string]float64
		} `json:"torusx_obs"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v\n%s", err, rec.Body.String())
	}
	c := vars.Obs.Counters
	if c["aapebench.expvar_test"] != 5 {
		t.Errorf("torusx_obs counters = %v, want aapebench.expvar_test 5, read live", c)
	}
	if _, ok := c["progcache.hits"]; !ok {
		t.Errorf("torusx_obs counters = %v, want the process cache's progcache.hits", c)
	}
	if h := vars.Obs.Histograms["stage.replay.ns"]; h["count"] < 1 {
		t.Errorf("torusx_obs histograms = %v, want stage.replay.ns", vars.Obs.Histograms)
	}
}

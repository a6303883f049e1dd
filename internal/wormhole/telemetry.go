package wormhole

import (
	"torusx/internal/telemetry"
	"torusx/internal/topology"
)

// EmitTelemetry publishes a tracked simulation outcome on rec: the
// cycle count and header-stall counters, plus one busy-cycle and one
// utilization gauge per link the step touched, keyed by (dim,
// direction, source coordinate). Gauges are emitted in the torus's
// canonical link order, so the stream does not depend on map
// iteration order. label prefixes the counter names, letting one sink
// carry several steps ("wormhole.step3.cycles", ...).
func EmitTelemetry(rec *telemetry.Recorder, t *topology.Torus, label string, st Stats) {
	if !rec.Enabled() {
		return
	}
	rec.Counter(label+".cycles", float64(st.Cycles), float64(st.Cycles))
	rec.Counter(label+".header_stalls", float64(st.Cycles), float64(st.HeaderStalls))
	if st.LinkBusy == nil || st.Cycles == 0 {
		return
	}
	for _, l := range t.AllLinks() {
		busy, ok := st.LinkBusy[l]
		if !ok {
			continue
		}
		rec.LinkGauge(label+".link_busy_cycles", t, l, float64(busy))
		rec.LinkGauge(label+".link_util", t, l, float64(busy)/float64(st.Cycles))
	}
}

package packetsim

import (
	"torusx/internal/telemetry"
	"torusx/internal/topology"
)

// EmitTelemetry publishes a tracked simulation outcome on rec: the
// cycle count and queue-wait counters, plus one busy-cycle and one
// utilization gauge per link the step touched, keyed by (dim,
// direction, source coordinate). Gauges follow the torus's canonical
// link order, so the stream does not depend on map iteration order.
func EmitTelemetry(rec *telemetry.Recorder, t *topology.Torus, label string, st Stats) {
	if !rec.Enabled() {
		return
	}
	rec.Counter(label+".cycles", float64(st.Cycles), float64(st.Cycles))
	rec.Counter(label+".queue_waits", float64(st.Cycles), float64(st.QueueWaits))
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

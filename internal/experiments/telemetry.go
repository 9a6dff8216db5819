package experiments

import (
	"qarv/internal/obs"
	"qarv/internal/sim"
)

// Metric names the offload control loop registers (the sim-backed
// paths reuse the sim_* series registered by internal/sim).
const (
	// MetricOffloadFrames counts frames offered to the uplink.
	MetricOffloadFrames = "offload_frames_total"
	// MetricOffloadLost counts frames dropped by link-layer loss.
	MetricOffloadLost = "offload_frames_lost_total"
	// MetricOffloadBacklog is the per-slot uplink-backlog distribution
	// in bytes.
	MetricOffloadBacklog = "offload_backlog_bytes"
	// MetricOffloadLatency is the delivered-frame end-to-end latency
	// distribution in slots.
	MetricOffloadLatency = "offload_latency_slots"
)

// offloadTelemetry is the offload loop's telemetry: an Observer of its
// slot stream with pre-resolved instrument handles.
type offloadTelemetry struct {
	rec     *obs.FlightRecorder
	frames  *obs.Counter
	lost    *obs.Counter
	backlog *obs.Histogram
	latency *obs.Histogram
	// lastDepth lets the recorder log only depth changes.
	lastDepth int
}

// newOffloadTelemetry resolves handles against reg and returns the
// observer feeding them; nil when both sinks are off.
func newOffloadTelemetry(reg *obs.Registry, rec *obs.FlightRecorder) sim.Observer {
	if reg == nil && rec == nil {
		return nil
	}
	tel := &offloadTelemetry{
		rec:       rec,
		frames:    reg.Counter(MetricOffloadFrames),
		lost:      reg.Counter(MetricOffloadLost),
		backlog:   reg.Histogram(MetricOffloadBacklog),
		latency:   reg.Histogram(MetricOffloadLatency),
		lastDepth: -1,
	}
	return tel.observe
}

func (tel *offloadTelemetry) observe(e sim.SlotEvent) {
	slot, track := int64(e.Slot), int64(e.Device)
	tel.frames.Inc()
	tel.backlog.Observe(e.Backlog)
	if e.DroppedFrames > 0 {
		tel.lost.Inc()
		tel.rec.Event(slot, "offload", "loss", track, e.Dropped)
	} else {
		tel.latency.Observe(e.Latency)
	}
	if e.Depth != tel.lastDepth {
		tel.rec.Event(slot, "offload", "depth", track, float64(e.Depth))
		tel.lastDepth = e.Depth
	}
	tel.rec.Span(slot, 1, "offload", "slot", track, e.Backlog)
}

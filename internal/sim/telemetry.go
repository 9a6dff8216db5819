package sim

import "qarv/internal/obs"

// Metric names the sim layer registers. Shared-uplink runs add the
// alloc_* series; the offload path (internal/experiments) registers
// its own offload_* series against the same registry.
const (
	// MetricSlots counts device-slots stepped.
	MetricSlots = "sim_slots_total"
	// MetricFramesArrived counts frames offered by the arrival process.
	MetricFramesArrived = "sim_frames_arrived_total"
	// MetricFramesCompleted counts frames served to completion.
	MetricFramesCompleted = "sim_frames_completed_total"
	// MetricFramesDropped counts frames removed by bounded-backlog
	// overflow.
	MetricFramesDropped = "sim_frames_dropped_total"
	// MetricBacklog is the per-slot backlog distribution Q(t).
	MetricBacklog = "sim_backlog"
	// MetricServed is the per-slot served-work distribution.
	MetricServed = "sim_served"
	// MetricUtility is the per-slot utility distribution pa(d(t)).
	MetricUtility = "sim_utility"
	// MetricSojourn is the per-frame sojourn distribution in slots.
	MetricSojourn = "sim_sojourn_slots"
	// MetricAllocSlots counts allocator invocations (shared runs).
	MetricAllocSlots = "alloc_slots_total"
	// MetricAllocShare is the per-device per-slot share distribution.
	MetricAllocShare = "alloc_share"
)

// telemetry is the sim layer's per-slot telemetry: an Observer of the
// slot stream with pre-resolved instrument handles, so the slot loop
// never does a map lookup. Individual handles may be nil (recorder-only
// runs); obs instruments no-op on nil.
type telemetry struct {
	rec             *obs.FlightRecorder
	slots           *obs.Counter
	framesArrived   *obs.Counter
	framesCompleted *obs.Counter
	framesDropped   *obs.Counter
	backlog         *obs.Histogram
	served          *obs.Histogram
	utility         *obs.Histogram
	sojourn         *obs.Histogram
	// lastDepth holds each device's previous depth (-1 before its
	// first slot; single runs use entry 0) so the recorder logs only
	// depth changes.
	lastDepth []int
}

// newTelemetry resolves instrument handles against reg and returns the
// observer feeding them; nil when both telemetry sinks are disabled.
func newTelemetry(reg *obs.Registry, rec *obs.FlightRecorder) Observer {
	if reg == nil && rec == nil {
		return nil
	}
	tel := &telemetry{
		rec:             rec,
		slots:           reg.Counter(MetricSlots),
		framesArrived:   reg.Counter(MetricFramesArrived),
		framesCompleted: reg.Counter(MetricFramesCompleted),
		framesDropped:   reg.Counter(MetricFramesDropped),
		backlog:         reg.Histogram(MetricBacklog),
		served:          reg.Histogram(MetricServed),
		utility:         reg.Histogram(MetricUtility),
		sojourn:         reg.Histogram(MetricSojourn),
	}
	return tel.observe
}

func (tel *telemetry) observe(e SlotEvent) {
	tel.slots.Inc()
	tel.framesArrived.Add(int64(e.Frames))
	tel.framesCompleted.Add(int64(len(e.Completed)))
	tel.backlog.Observe(e.Backlog)
	tel.served.Observe(e.Served)
	tel.utility.Observe(e.Utility)
	for _, c := range e.Completed {
		tel.sojourn.Observe(float64(c.Sojourn))
	}
	slot, track := int64(e.Slot), int64(e.Device)
	if e.Dropped > 0 {
		tel.framesDropped.Add(int64(e.DroppedFrames))
		tel.rec.Event(slot, "sim", "drop", track, e.Dropped)
	}
	i := max(e.Device, 0)
	for len(tel.lastDepth) <= i {
		tel.lastDepth = append(tel.lastDepth, -1)
	}
	if e.Depth != tel.lastDepth[i] {
		tel.rec.Event(slot, "sim", "depth", track, float64(e.Depth))
		tel.lastDepth[i] = e.Depth
	}
	tel.rec.Span(slot, 1, "sim", "slot", track, e.Backlog)
}

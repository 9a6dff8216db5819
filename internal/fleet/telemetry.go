package fleet

import "qarv/internal/obs"

// Metric names the fleet engine registers. Everything is an exact
// integer count or an integer-valued histogram, so the merged registry
// — and its snapshot — is byte-identical across shard counts, unlike
// the float-sum-backed Mean/DroppedWork report fields.
const (
	// MetricSessions counts sessions simulated (seats plus churn
	// backfills).
	MetricSessions = "fleet_sessions_total"
	// MetricDepartures counts sessions that departed early via churn.
	MetricDepartures = "fleet_departures_total"
	// MetricDeviceSlots counts simulated device-time in slots.
	MetricDeviceSlots = "fleet_device_slots_total"
	// MetricFramesCompleted counts frames served to completion.
	MetricFramesCompleted = "fleet_frames_completed_total"
	// MetricFramesDropped counts frames lost to bounded-backlog
	// overflow.
	MetricFramesDropped = "fleet_frames_dropped_total"
	// MetricSessionLifetime is the session-lifetime distribution in
	// slots.
	MetricSessionLifetime = "fleet_session_lifetime_slots"
)

// addTotals adds the fleet-wide counters to reg from the merged total:
// they count exactly what Report.Total does, so they are written once
// here rather than per session. Only the lifetime histogram and the
// recorder's session events are recorded per session (runShard).
func addTotals(reg *obs.Registry, total *ProfileReport) {
	reg.Counter(MetricSessions).Add(total.Sessions)
	reg.Counter(MetricDepartures).Add(total.Departures)
	reg.Counter(MetricDeviceSlots).Add(total.DeviceSlots)
	reg.Counter(MetricFramesCompleted).Add(total.FramesCompleted)
	reg.Counter(MetricFramesDropped).Add(total.FramesDropped)
}

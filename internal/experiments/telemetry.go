package experiments

// Metric names the uplink delivery pass registers (the kernel run
// before it records the sim_* and alloc_* series registered by
// internal/sim).
const (
	// MetricOffloadLost counts frames dropped by link-layer loss.
	MetricOffloadLost = "offload_frames_lost_total"
	// MetricOffloadLatency is the delivered-frame end-to-end latency
	// distribution in slots.
	MetricOffloadLatency = "offload_latency_slots"
)

package qarv

// The telemetry facade: re-exports the internal/obs registry and flight
// recorder so callers can opt sessions (WithTelemetry,
// WithFlightRecorder), fleets (FleetSpec.Metrics/Recorder), and sweeps
// (Sweep.Metrics/Recorder) into metric collection and trace capture.
// Telemetry is strictly observational — every report is byte-identical
// with it on or off — and deterministic: a registry snapshot is
// byte-identical per seed at any worker or shard count.

import "qarv/internal/obs"

type (
	// MetricsRegistry is a mergeable registry of named counters, gauges,
	// and sketch-backed histograms. Instruments are concurrency-safe;
	// registries merge losslessly (counters add, gauges keep the max,
	// histogram sketches merge) and snapshot in sorted name order, so
	// snapshots are byte-identical per seed at any shard or worker
	// count. A nil registry is valid everywhere and records nothing.
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is a registry's point-in-time export: sorted
	// counter/gauge/histogram values, encodable as JSON
	// (EncodeJSON) or Prometheus text exposition (WriteProm).
	MetricsSnapshot = obs.Snapshot
	// FlightRecorder is a fixed-size ring of slot-stamped span/event
	// records, exportable as JSON (WriteJSON) or a Chrome trace_event
	// file (WriteTrace). Concurrency-safe; keeps the newest records
	// once full. A nil recorder is valid everywhere and records
	// nothing.
	FlightRecorder = obs.FlightRecorder
)

// NewMetricsRegistry returns an empty registry at the default sketch
// accuracy (1% relative quantile error).
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewFlightRecorder returns a recorder holding the newest capacity
// records; capacity <= 0 takes the default (8192).
func NewFlightRecorder(capacity int) *FlightRecorder { return obs.NewFlightRecorder(capacity) }

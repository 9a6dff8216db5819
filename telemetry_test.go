package qarv

// Acceptance pins for the telemetry layer: metric snapshots are
// byte-identical per seed at any shard or worker count, and attaching
// telemetry never changes a single report byte.

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"qarv/internal/obs"
)

// telemetryProfile is a fully stochastic cheap fleet class, so shard
// boundaries would show up immediately if any instrument were
// order-sensitive.
func telemetryProfile(t *testing.T) Profile {
	t.Helper()
	cost, util := cheapModels(t)
	return Profile{
		Name:   "stochastic",
		Weight: 1,
		NewPolicy: func(rng *RNG) (Policy, error) {
			return NewRandomPolicy([]int{2, 3, 4, 5}, rng.Uint64())
		},
		Cost:    cost,
		Utility: util,
		NewArrivals: func(rng *RNG) ArrivalProcess {
			return &PoissonArrivals{Mean: 1.2, RNG: rng}
		},
		NewService: func(rng *RNG) ServiceProcess {
			return &NoisyService{Mean: 4000, Std: 500, RNG: rng}
		},
	}
}

func runTelemetryFleet(t *testing.T, shards int, reg *MetricsRegistry) *FleetReport {
	t.Helper()
	fl, err := NewFleet(FleetSpec{
		Sessions: 64,
		Slots:    80,
		Shards:   shards,
		Churn:    0.002,
		Seed:     7,
		Profiles: []Profile{telemetryProfile(t)},
		Metrics:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fl.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func snapshotJSON(t *testing.T, s *obs.Snapshot) string {
	t.Helper()
	var buf bytes.Buffer
	if err := s.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestFleetTelemetryShardIndependence pins the tentpole contract: the
// merged metric snapshot of a stochastic fleet is byte-identical at
// shard counts 1, 4, and 16 for the same seed.
func TestFleetTelemetryShardIndependence(t *testing.T) {
	var base string
	for _, shards := range []int{1, 4, 16} {
		reg := NewMetricsRegistry()
		rep := runTelemetryFleet(t, shards, reg)
		if rep.Metrics == nil {
			t.Fatalf("shards=%d: report carries no metrics snapshot", shards)
		}
		got := snapshotJSON(t, reg.Snapshot())
		if onRep := snapshotJSON(t, rep.Metrics); onRep != got {
			t.Fatalf("shards=%d: report snapshot diverges from caller registry", shards)
		}
		if base == "" {
			base = got
			if !strings.Contains(base, "fleet_sessions_total") ||
				!strings.Contains(base, "fleet_session_lifetime_slots") {
				t.Fatalf("snapshot missing expected series:\n%s", base)
			}
			continue
		}
		if got != base {
			t.Errorf("shards=%d snapshot diverged from shards=1:\n%s\n--- vs ---\n%s", shards, got, base)
		}
	}
}

// TestFleetReportUnchangedByTelemetry pins the observability contract:
// a telemetry-on report marshals byte-identically to a telemetry-off
// report (wall-clock throughput fields zeroed on both sides — they
// differ run to run with or without telemetry).
func TestFleetReportUnchangedByTelemetry(t *testing.T) {
	marshal := func(rep *FleetReport) string {
		rep.Elapsed = 0
		rep.DeviceSlotsPerSec = 0
		raw, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	off := marshal(runTelemetryFleet(t, 4, nil))
	on := marshal(runTelemetryFleet(t, 4, NewMetricsRegistry()))
	if off != on {
		t.Errorf("telemetry changed the report:\noff: %s\non:  %s", off, on)
	}
}

// sweepWithTelemetry reruns the acceptance grid with a registry and
// recorder attached.
func sweepWithTelemetry(t *testing.T, workers int) (*Sweep, *MetricsRegistry) {
	t.Helper()
	sw := threeAxisSweep(t, workers, 42)
	reg := NewMetricsRegistry()
	sw.Metrics = reg
	sw.Recorder = NewFlightRecorder(0)
	return sw, reg
}

// TestSweepTelemetryWorkerIndependence: the sweep-level merged registry
// and the per-row snapshots are byte-identical at any worker count, and
// the report JSON matches the telemetry-off pin exactly.
func TestSweepTelemetryWorkerIndependence(t *testing.T) {
	plain := sweepJSON(t, threeAxisSweep(t, 1, 42))

	sw1, reg1 := sweepWithTelemetry(t, 1)
	if got := sweepJSON(t, sw1); got != plain {
		t.Fatal("telemetry changed the sweep report")
	}
	base := snapshotJSON(t, reg1.Snapshot())
	if !strings.Contains(base, "sim_slots_total") {
		t.Fatalf("sweep snapshot missing sim series:\n%s", base)
	}

	sw4, reg4 := sweepWithTelemetry(t, 4)
	rep, err := sw4.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := snapshotJSON(t, reg4.Snapshot()); got != base {
		t.Errorf("workers=4 sweep snapshot diverged:\n%s\n--- vs ---\n%s", got, base)
	}
	for _, row := range rep.Rows {
		if row.Metrics == nil {
			t.Fatalf("cell %d has no metrics snapshot", row.Cell)
		}
		if row.Metrics.Counters[0].Value <= 0 {
			t.Fatalf("cell %d counters empty", row.Cell)
		}
	}
}

// TestSessionTelemetryAndTrace: a session wired through WithTelemetry /
// WithFlightRecorder produces counters that agree with the report and a
// trace_event export that parses.
func TestSessionTelemetryAndTrace(t *testing.T) {
	reg := NewMetricsRegistry()
	rec := NewFlightRecorder(0)
	opts := append(cheapSessionOpts(t, 200),
		WithTelemetry(reg), WithFlightRecorder(rec))
	s, err := NewSession(opts...)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	var slots int64
	for _, c := range snap.Counters {
		if c.Name == "sim_slots_total" {
			slots = c.Value
		}
	}
	if slots != 200 {
		t.Errorf("sim_slots_total = %d, want 200", slots)
	}
	if rep.Sim == nil || len(rep.Sim.Backlog) != 200 {
		t.Fatalf("unexpected report shape")
	}
	if rec.Len() == 0 {
		t.Fatal("recorder captured nothing")
	}
	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("trace_event export does not parse: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("trace_event export is empty")
	}
}

package sim

import (
	"reflect"
	"testing"

	"qarv/internal/delay"
	"qarv/internal/obs"
	"qarv/internal/policy"
	"qarv/internal/quality"
	"qarv/internal/queueing"
)

func TestTelemetryCountsAndRecords(t *testing.T) {
	max, err := policy.NewMaxDepth(testDepths)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(t, max, 100)
	cfg.MaxBacklog = 200_000 // max-depth at this service rate overflows
	cfg.Metrics = obs.NewRegistry()
	cfg.Recorder = obs.NewFlightRecorder(1024)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := cfg.Metrics.Counter(MetricSlots).Value(); got != 100 {
		t.Fatalf("%s = %d, want 100", MetricSlots, got)
	}
	if got := cfg.Metrics.Counter(MetricFramesArrived).Value(); got != 100 {
		t.Fatalf("%s = %d, want 100", MetricFramesArrived, got)
	}
	if got := cfg.Metrics.Counter(MetricFramesDropped).Value(); got != int64(res.DroppedFrames) {
		t.Fatalf("%s = %d, want %d", MetricFramesDropped, got, res.DroppedFrames)
	}
	if got := cfg.Metrics.Counter(MetricFramesCompleted).Value(); got != int64(len(res.Completed)) {
		t.Fatalf("%s = %d, want %d", MetricFramesCompleted, got, len(res.Completed))
	}
	if got := cfg.Metrics.Histogram(MetricBacklog).Count(); got != 100 {
		t.Fatalf("%s count = %d, want 100", MetricBacklog, got)
	}
	if cfg.Recorder.Len() == 0 {
		t.Fatal("recorder captured nothing")
	}
	// Exactly one depth-change event: max-depth picks d=10 every slot.
	var depthChanges int
	for _, rec := range cfg.Recorder.Records() {
		if rec.Cat == "sim" && rec.Name == "depth" {
			depthChanges++
		}
	}
	if depthChanges != 1 {
		t.Fatalf("depth-change events = %d, want 1 (constant policy)", depthChanges)
	}
}

// TestTelemetryDoesNotChangeResult pins the acceptance criterion that
// enabling telemetry leaves the report identical.
func TestTelemetryDoesNotChangeResult(t *testing.T) {
	max, err := policy.NewMaxDepth(testDepths)
	if err != nil {
		t.Fatal(err)
	}
	plain := baseConfig(t, max, 200)
	plain.MaxBacklog = 200_000
	want, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	instrumented := baseConfig(t, max, 200)
	instrumented.MaxBacklog = 200_000
	instrumented.Metrics = obs.NewRegistry()
	instrumented.Recorder = obs.NewFlightRecorder(256)
	got, err := Run(instrumented)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("telemetry changed the run result")
	}
}

// TestTelemetryDisabledZeroAllocPerSlot pins the nil-telemetry fast
// path: with Metrics and Recorder nil, the slot loop itself must not
// allocate at all, whether the device is idle or loaded. The loaded
// device offers one max-depth frame per slot against a bounded backlog,
// so frames stay in flight, overflow trims them tail-first and nearly
// every slot completes one. Its Result's Completed record is presized, as
// that record grows with the run by design.
func TestTelemetryDisabledZeroAllocPerSlot(t *testing.T) {
	max, err := policy.NewMaxDepth(testDepths)
	if err != nil {
		t.Fatal(err)
	}
	u, c := fixtures(t)
	const warm, slots = 1000, 2000
	for _, tc := range []struct {
		name       string
		perSlot    int
		maxBacklog float64
	}{
		{"idle", 0, 0},
		{"loaded", 1, 400_000},
	} {
		dev := newDeviceRunner(max, c, u, &queueing.DeterministicArrivals{PerSlot: tc.perSlot}, tc.maxBacklog, slots)
		dev.res.Completed = make([]queueing.Completed, 0, slots)
		next := 0
		for ; next < warm; next++ {
			dev.step(next, testService, -1, nil)
		}
		allocs := testing.AllocsPerRun(5, func() {
			for i := 0; i < 100; i++ {
				dev.step(next, testService, -1, nil)
				next++
			}
		})
		if allocs != 0 {
			t.Errorf("%s: disabled-telemetry slot loop allocates (%v allocs per 100 slots)", tc.name, allocs)
		}
		if tc.perSlot > 0 && (dev.k.QueuedFrames() == 0 || len(dev.res.Completed) < next/2 || dev.k.TotalDropped() == 0) {
			t.Errorf("%s: %d frames queued, %d completed and %v work dropped over %d slots; want frames in flight, completing and overflowing",
				tc.name, dev.k.QueuedFrames(), len(dev.res.Completed), dev.k.TotalDropped(), next)
		}
	}
}

// benchSimConfig mirrors baseConfig for benchmarks.
func benchSimConfig(b *testing.B, slots int) Config {
	b.Helper()
	u, err := quality.NewLogPointUtility(testProfile)
	if err != nil {
		b.Fatal(err)
	}
	c, err := delay.NewPointCostModel(testProfile, 1, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	p, err := policy.NewMaxDepth(testDepths)
	if err != nil {
		b.Fatal(err)
	}
	return Config{
		Policy:     p,
		Arrivals:   &queueing.DeterministicArrivals{PerSlot: 1},
		Cost:       c,
		Utility:    u,
		Service:    &delay.ConstantService{Rate: testService},
		Slots:      slots,
		MaxBacklog: 400_000,
	}
}

// BenchmarkObserverOverhead measures the slot loop with telemetry off
// (the nil fast path every pre-telemetry caller stays on), with a
// metric registry attached, and with registry plus flight recorder.
// One op is one slot.
func BenchmarkObserverOverhead(b *testing.B) {
	modes := []struct {
		name     string
		metrics  bool
		recorder bool
	}{
		{name: "off"},
		{name: "metrics", metrics: true},
		{name: "metrics+recorder", metrics: true, recorder: true},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			cfg := benchSimConfig(b, b.N)
			if m.metrics {
				cfg.Metrics = obs.NewRegistry()
			}
			if m.recorder {
				cfg.Recorder = obs.NewFlightRecorder(0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			if _, err := Run(cfg); err != nil {
				b.Fatal(err)
			}
		})
	}
}

package qarv

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"qarv/internal/sim"
)

// cheapModels builds a tiny hand-rolled sim configuration that needs no
// synthetic capture — fast enough for million-slot cancellation runs.
func cheapModels(t *testing.T) (CostModel, UtilityModel) {
	t.Helper()
	profile := []int{1, 10, 100, 1000, 5000, 20000}
	cost, err := NewPointCostModel(profile, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	util, err := NewLogPointUtility(profile)
	if err != nil {
		t.Fatal(err)
	}
	return cost, util
}

func cheapSessionOpts(t *testing.T, slots int) []Option {
	t.Helper()
	cost, util := cheapModels(t)
	p, err := NewThresholdPolicy([]int{2, 3, 4, 5}, 3000, 9000)
	if err != nil {
		t.Fatal(err)
	}
	return []Option{
		WithPolicy(p),
		WithArrivals(&DeterministicArrivals{PerSlot: 1}),
		WithCost(cost),
		WithUtility(util),
		WithService(&ConstantService{Rate: 4000}),
		WithSlots(slots),
	}
}

func TestSessionOptionValidation(t *testing.T) {
	cost, util := cheapModels(t)
	fixed := &FixedDepth{Depth: 3}
	arr := &DeterministicArrivals{PerSlot: 1}
	svc := &ConstantService{Rate: 100}

	cases := []struct {
		name string
		opts []Option
		want error
	}{
		{"missing policy", []Option{WithArrivals(arr), WithCost(cost), WithUtility(util), WithService(svc), WithSlots(10)}, sim.ErrNilPolicy},
		{"missing arrivals", []Option{WithPolicy(fixed), WithCost(cost), WithUtility(util), WithService(svc), WithSlots(10)}, sim.ErrNilArrivals},
		{"missing slots", []Option{WithPolicy(fixed), WithArrivals(arr), WithCost(cost), WithUtility(util), WithService(svc)}, sim.ErrBadSlots},
		{"policy with devices", []Option{WithPolicy(fixed), WithDevices(Device{Policy: fixed, Cost: cost, Utility: util, Arrivals: arr}), WithService(svc), WithSlots(10)}, ErrOptionConflict},
		{"max backlog with devices", []Option{WithMaxBacklog(5), WithDevices(Device{Policy: fixed, Cost: cost, Utility: util, Arrivals: arr}), WithService(svc), WithSlots(10)}, ErrOptionConflict},
		{"offload with policy", []Option{WithOffload(OffloadParams{}), WithPolicy(fixed)}, ErrOptionConflict},
		{"incomplete device", []Option{WithDevices(Device{Policy: fixed}), WithService(svc), WithSlots(10)}, sim.ErrNilCost},
		{"no devices no policy", nil, sim.ErrNilPolicy},
		{"allocator without devices", append(cheapSessionOpts(t, 10), WithAllocator(EqualSplit{})), ErrAllocatorWithoutDevices},
		{"allocator with offload", []Option{WithOffload(OffloadParams{}), WithAllocator(NewMaxWeight())}, ErrAllocatorWithoutDevices},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewSession(tc.opts...); !errors.Is(err, tc.want) {
				t.Errorf("NewSession = %v, want %v", err, tc.want)
			}
		})
	}

	if _, err := NewSession(WithOffload(OffloadParams{ScenarioParams: ScenarioParams{Character: "no-such-preset"}})); err == nil {
		t.Error("bad offload character accepted")
	}
	// Offload sessions reject the same config mistakes the other kinds
	// do, at construction: non-positive horizons and malformed links.
	if _, err := NewSession(WithOffload(OffloadParams{}), WithSlots(-5)); !errors.Is(err, sim.ErrBadSlots) {
		t.Errorf("offload WithSlots(-5) = %v, want ErrBadSlots", err)
	}
	if _, err := NewSession(WithOffload(OffloadParams{Link: &LinkConfig{LossProb: -0.5}})); err == nil {
		t.Error("negative loss probability accepted at construction")
	}
	if _, err := NewSession(WithOffload(OffloadParams{Link: &LinkConfig{LatencySlots: -1}})); err == nil {
		t.Error("negative latency accepted at construction")
	}
	// Malformed dynamics are rejected at construction too.
	if _, err := NewSession(WithOffload(OffloadParams{Dynamics: &ConstantService{}})); err == nil {
		t.Error("zero constant dynamics accepted at construction")
	}
	if _, err := NewSession(WithOffload(OffloadParams{
		Dynamics: &MarkovBandwidth{GoodRate: -1},
	})); err == nil {
		t.Error("invalid markov dynamics accepted at construction")
	}
}

func TestSessionCancellationSim(t *testing.T) {
	// A million-slot run must abort promptly on cancel. The observer
	// cancels deterministically mid-run; the loop polls once per
	// queueing.PollEvery slots, so the run must die long before the end.
	const slots = 1_000_000
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var lastSlot int
	opts := append(cheapSessionOpts(t, slots), WithObserver(func(e SlotEvent) {
		lastSlot = e.Slot
		if e.Slot == 500 {
			cancel()
		}
	}))
	s, err := NewSession(opts...)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = s.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	if lastSlot > 10_000 {
		t.Errorf("run continued to slot %d after cancel at 500", lastSlot)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation took %v", elapsed)
	}

	// A pre-canceled context aborts before any meaningful work — even on
	// runs shorter than one cancellation-poll stride (the first slot
	// polls too).
	pre, preCancel := context.WithCancel(context.Background())
	preCancel()
	for _, shortSlots := range []int{10, slots} {
		s2, err := NewSession(cheapSessionOpts(t, shortSlots)...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s2.Run(pre); !errors.Is(err, context.Canceled) {
			t.Fatalf("pre-canceled %d-slot Run = %v", shortSlots, err)
		}
	}
}

func TestSessionCancellationMulti(t *testing.T) {
	cost, util := cheapModels(t)
	devs := make([]Device, 3)
	for i := range devs {
		devs[i] = Device{
			Policy:   &FixedDepth{Depth: 3},
			Cost:     cost,
			Utility:  util,
			Arrivals: &DeterministicArrivals{PerSlot: 1},
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s, err := NewSession(
		WithDevices(devs...),
		WithService(&ConstantService{Rate: 12000}),
		WithSlots(1_000_000),
		WithObserver(func(e SlotEvent) {
			if e.Slot == 200 && e.Device == 0 {
				cancel()
			}
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("multi Run = %v, want context.Canceled", err)
	}
}

func TestSessionCancellationOffload(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s, err := NewSession(
		WithOffload(OffloadParams{ScenarioParams: ScenarioParams{
			Samples: 8000, CaptureDepth: 8, Depths: []int{4, 5, 6, 7, 8},
			KneeSlot: 50,
		}}),
		WithSlots(2_000_000),
		WithObserver(func(e SlotEvent) {
			if e.Slot == 300 {
				cancel()
			}
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("offload Run = %v, want context.Canceled", err)
	}
}

func TestSessionObserverSeesEverySlot(t *testing.T) {
	const slots = 2000
	var events []SlotEvent
	opts := append(cheapSessionOpts(t, slots), WithObserver(func(e SlotEvent) {
		events = append(events, e)
	}))
	s, err := NewSession(opts...)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != slots {
		t.Fatalf("observer saw %d events, want %d", len(events), slots)
	}
	for i, e := range events {
		if e.Slot != i || e.Device != -1 {
			t.Fatalf("event %d = %+v", i, e)
		}
		if e.Backlog != rep.Sim.Backlog[i] || e.Depth != rep.Sim.Depth[i] ||
			e.Arrived != rep.Sim.Arrived[i] || e.Served != rep.Sim.Served[i] {
			t.Fatalf("event %d %+v disagrees with trajectory", i, e)
		}
	}
}

// Regression: a nil observer registered alongside a live one is
// skipped rather than called (it used to panic at slot 0).
func TestSessionNilObserverSkipped(t *testing.T) {
	const slots = 20
	var seen int
	opts := append(cheapSessionOpts(t, slots),
		WithObserver(nil), WithObserver(func(SlotEvent) { seen++ }), WithObserver(nil))
	s, err := NewSession(opts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if seen != slots {
		t.Fatalf("live observer saw %d events, want %d", seen, slots)
	}
}

func TestSessionScenarioDefaultsAndOverrides(t *testing.T) {
	scn, err := NewScenario(ScenarioParams{Samples: 30_000, Slots: 400, KneeSlot: 100, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	// Scenario alone: the calibrated controller and defaults.
	s, err := NewSession(WithScenario(scn))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kind != KindSim || len(rep.Sim.Backlog) != 400 {
		t.Fatalf("report = kind %v, %d slots", rep.Kind, len(rep.Sim.Backlog))
	}
	if rep.Verdict == VerdictDiverging {
		t.Error("calibrated scenario diverged")
	}

	// Overrides: a different policy and horizon on the same scenario.
	minP, err := NewMinDepthPolicy(scn.Params.Depths)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewSession(WithScenario(scn), WithPolicy(minP), WithSlots(200))
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := s2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Sim.Backlog) != 200 {
		t.Errorf("override slots = %d", len(rep2.Sim.Backlog))
	}
	if rep2.Sim.PolicyName != minP.Name() {
		t.Errorf("override policy = %q", rep2.Sim.PolicyName)
	}

	// Multi-device from a scenario: budget defaults to N× calibrated rate.
	ctrl1, err := scn.Controller()
	if err != nil {
		t.Fatal(err)
	}
	ctrl2, err := scn.Controller()
	if err != nil {
		t.Fatal(err)
	}
	mk := func(p Policy) Device {
		return Device{Policy: p, Cost: scn.Cost, Utility: scn.Utility,
			Arrivals: &DeterministicArrivals{PerSlot: 1}}
	}
	s3, err := NewSession(WithScenario(scn), WithDevices(mk(ctrl1), mk(ctrl2)))
	if err != nil {
		t.Fatal(err)
	}
	rep3, err := s3.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep3.Kind != KindMulti || len(rep3.Multi.PerDevice) != 2 {
		t.Fatalf("multi report = %+v", rep3)
	}
}

func TestSessionWithAllocator(t *testing.T) {
	cost, util := cheapModels(t)
	arr := &DeterministicArrivals{PerSlot: 1}
	devices := func() []Device {
		devs := make([]Device, 2)
		for i := range devs {
			devs[i] = Device{Policy: &FixedDepth{Depth: 3}, Cost: cost, Utility: util, Arrivals: arr}
		}
		return devs
	}
	// Default split is the information-free equal one.
	s, err := NewSession(WithDevices(devices()...),
		WithService(&ConstantService{Rate: 4000}), WithSlots(200))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Multi.Allocator != "equal-split" {
		t.Errorf("default allocator = %q", rep.Multi.Allocator)
	}
	// WithAllocator swaps the split; per-device frame accounting flows.
	s, err = NewSession(WithDevices(devices()...),
		WithService(&ConstantService{Rate: 4000}), WithSlots(200),
		WithAllocator(NewMaxWeight()))
	if err != nil {
		t.Fatal(err)
	}
	rep, err = s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Multi.Allocator != "max-weight" {
		t.Errorf("allocator = %q, want max-weight", rep.Multi.Allocator)
	}
	for i, r := range rep.Multi.PerDevice {
		if len(r.Completed) == 0 {
			t.Errorf("device %d reports no completed frames", i)
		}
	}
}

// withUplink returns base with its uplink set to l.
func withUplink(base OffloadParams, l LinkConfig) OffloadParams {
	base.Link = &l
	return base
}

func TestSessionOffloadWithLink(t *testing.T) {
	base := OffloadParams{ScenarioParams: ScenarioParams{
		Samples: 8000, CaptureDepth: 8, Depths: []int{4, 5, 6, 7, 8},
		KneeSlot: 50, Slots: 400, Seed: 3,
	}}
	// The fixed bandwidth must sit below bytes(d_max) or V-calibration
	// (correctly) refuses: every depth stable means no tradeoff to tune.
	s, err := NewSession(WithOffload(withUplink(base, LinkConfig{
		BytesPerSlot: 20_000, LatencySlots: 1, JitterSlots: 0.1, LossProb: 0.001,
	})))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kind != KindOffload || rep.Offload == nil {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Offload.Bandwidth != 20_000 {
		t.Errorf("bandwidth = %v, want the Link override", rep.Offload.Bandwidth)
	}
	if rep.TimeAvgBacklog <= 0 {
		t.Error("offload summary backlog missing")
	}

	// A lossless link is expressible: explicit zeros are honored rather
	// than re-defaulted to the offload's 1% loss / 2-slot latency.
	s2, err := NewSession(WithOffload(withUplink(base, LinkConfig{
		BytesPerSlot: 20_000, LatencySlots: 0, JitterSlots: 0, LossProb: 0,
	})))
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := s2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Offload.LossCount != 0 {
		t.Errorf("lossless link dropped %d frames", rep2.Offload.LossCount)
	}

	// The link seed is respected: different seeds, different traces.
	run := func(seed uint64) *OffloadResult {
		s, err := NewSession(WithOffload(withUplink(base, LinkConfig{
			BytesPerSlot: 20_000, JitterSlots: 2, LossProb: 0.2, Seed: seed,
		})))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rep.Offload
	}
	a, b, c := run(1), run(2), run(1)
	if a.LossCount != c.LossCount || !reflect.DeepEqual(a.Latency, c.Latency) {
		t.Error("same link seed produced different traces")
	}
	if a.LossCount == b.LossCount && reflect.DeepEqual(a.Latency, b.Latency) {
		t.Error("different link seeds produced identical traces")
	}
}

func TestSessionOffloadWithDynamics(t *testing.T) {
	base := OffloadParams{
		ScenarioParams: ScenarioParams{
			Samples: 8000, CaptureDepth: 8, Depths: []int{4, 5, 6, 7, 8},
			KneeSlot: 50, Slots: 400, Seed: 3,
		},
		Link: &LinkConfig{BytesPerSlot: 20_000, LatencySlots: 1},
	}
	run := func(seed uint64) *OffloadResult {
		p := base
		p.Dynamics = &MarkovBandwidth{
			GoodRate: 1.3, BadRate: 0.5,
			PGoodBad: 0.1, PBadGood: 0.2,
		}
		s, err := NewSession(WithOffload(p), WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if rep.Kind != KindOffload || rep.Offload == nil {
			t.Fatalf("report = %+v", rep)
		}
		return rep.Offload
	}
	a, b, c := run(7), run(7), run(8)
	if a.Network != "markov-bw" {
		t.Errorf("network = %q", a.Network)
	}
	// WithSeed keeps the whole report byte-identical, dynamics included.
	if !reflect.DeepEqual(a.BacklogBytes, b.BacklogBytes) || !reflect.DeepEqual(a.Latency, b.Latency) ||
		a.LossCount != b.LossCount || a.MeanDepth != b.MeanDepth {
		t.Error("same seed produced different dynamic-offload reports")
	}
	// A different seed drives a different capacity path.
	if reflect.DeepEqual(a.BacklogBytes, c.BacklogBytes) {
		t.Error("different seeds produced identical capacity paths")
	}
}

// Regression (review finding): offload runs clone the configured
// dynamics before reseeding, so one Session can Run concurrently —
// previously all offload state was rebuilt per run and Dynamics was
// the first cross-run mutable exception.
func TestSessionOffloadDynamicsConcurrentRuns(t *testing.T) {
	s, err := NewSession(
		WithOffload(OffloadParams{
			ScenarioParams: ScenarioParams{
				Samples: 8000, CaptureDepth: 8, Depths: []int{4, 5, 6, 7, 8},
				KneeSlot: 50, Slots: 200, Seed: 3,
			},
			Link: &LinkConfig{BytesPerSlot: 20_000, LatencySlots: 1},
			Dynamics: &MarkovBandwidth{
				GoodRate: 1.3, BadRate: 0.5, PGoodBad: 0.1, PBadGood: 0.2,
			},
		}),
		WithSeed(7),
	)
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	results := make([]*Report, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = s.Run(context.Background())
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(results[i].Offload.BacklogBytes, results[0].Offload.BacklogBytes) {
			t.Fatalf("concurrent run %d diverged from run 0", i)
		}
	}
}

package qarv

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"qarv/internal/alloc"
	"qarv/internal/delay"
	"qarv/internal/experiments"
	"qarv/internal/netem"
	"qarv/internal/policy"
	"qarv/internal/sim"
	"qarv/internal/synthetic"
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
	p, err := policy.NewThreshold([]int{2, 3, 4, 5}, 3000, 9000)
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
		{"incomplete device", []Option{WithDevices(Device{Policy: fixed}), WithService(svc), WithSlots(10)}, sim.ErrNilCost},
		{"no devices no policy", nil, sim.ErrNilPolicy},
		{"allocator without devices", append(cheapSessionOpts(t, 10), WithAllocator(alloc.EqualSplit{})), ErrAllocatorWithoutDevices},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewSession(tc.opts...); !errors.Is(err, tc.want) {
				t.Errorf("NewSession = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestSharedUplinkRejectsBadParams: an uplink run rejects the config
// mistakes a session rejects at construction — an unknown preset, a
// negative horizon, a malformed link or dynamics process — before it
// builds the capture.
func TestSharedUplinkRejectsBadParams(t *testing.T) {
	cases := []struct {
		name string
		p    SharedUplinkParams
		want error
	}{
		{"unknown preset", SharedUplinkParams{ScenarioParams: ScenarioParams{Character: "no-such-preset"}}, synthetic.ErrUnknownCharacter},
		{"negative slots", SharedUplinkParams{ScenarioParams: ScenarioParams{Slots: -5}}, experiments.ErrNegativeParam},
		{"negative loss", SharedUplinkParams{Link: &netem.LinkConfig{LossProb: -0.5}}, netem.ErrBadLoss},
		{"negative latency", SharedUplinkParams{Link: &netem.LinkConfig{LatencySlots: -1}}, netem.ErrBadLatency},
		{"zero constant dynamics", SharedUplinkParams{Dynamics: &ConstantService{}}, delay.ErrBadConstant},
		{"invalid markov dynamics", SharedUplinkParams{Dynamics: &MarkovBandwidth{GoodRate: -1}}, netem.ErrBadMarkov},
		{"negative devices", SharedUplinkParams{Devices: -3}, experiments.ErrNegativeParam},
		{"negative capture depth", SharedUplinkParams{ScenarioParams: ScenarioParams{CaptureDepth: -3}}, experiments.ErrNegativeParam},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.p.Devices == 0 {
				tc.p.Devices = 1
			}
			if _, err := SharedUplink(context.Background(), tc.p); !errors.Is(err, tc.want) {
				t.Errorf("SharedUplink = %v, want %v", err, tc.want)
			}
		})
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
	_, err := SharedUplink(ctx, SharedUplinkParams{
		ScenarioParams: ScenarioParams{
			Samples: 8000, CaptureDepth: 8, Depths: []int{4, 5, 6, 7, 8},
			KneeSlot: 50, Slots: 2_000_000,
		},
		Devices: 1,
		Observer: func(e SlotEvent) {
			if e.Slot == 300 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("uplink run = %v, want context.Canceled", err)
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
		next := rep.Sim.FinalBacklog
		if i+1 < slots {
			next = rep.Sim.Backlog[i+1]
		}
		if e.Backlog != rep.Sim.Backlog[i] || e.Depth != rep.Sim.Depth[i] ||
			e.Backlog+e.Arrived-e.Served != next {
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
	minP, err := policy.NewMinDepth(scn.Params.Depths)
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

// offloadParams is a cheap one-device uplink run.
func offloadParams() SharedUplinkParams {
	return SharedUplinkParams{
		ScenarioParams: ScenarioParams{
			Samples: 8000, CaptureDepth: 8, Depths: []int{4, 5, 6, 7, 8},
			KneeSlot: 50, Slots: 400, Seed: 3,
		},
		Devices: 1,
	}
}

// runUplink runs p, failing the test on error.
func runUplink(t *testing.T, p SharedUplinkParams) *SharedUplinkResult {
	t.Helper()
	res, err := SharedUplink(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSessionOffloadWithLink(t *testing.T) {
	withLink := func(l netem.LinkConfig) SharedUplinkParams {
		p := offloadParams()
		p.Link = &l
		return p
	}
	// The fixed bandwidth must sit below bytes(d_max) or V-calibration
	// (correctly) refuses: every depth stable means no tradeoff to tune.
	res := runUplink(t, withLink(netem.LinkConfig{
		BytesPerSlot: 20_000, LatencySlots: 1, JitterSlots: 0.1, LossProb: 0.001,
	}))
	if res.Bandwidth != 20_000 {
		t.Errorf("bandwidth = %v, want the Link override", res.Bandwidth)
	}
	if res.PerDevice[0].TimeAvgBacklogBytes <= 0 {
		t.Error("uplink backlog summary missing")
	}

	// A lossless link is expressible: explicit zeros are honored rather
	// than re-defaulted to the default uplink's 1% loss / 2-slot latency.
	lossless := runUplink(t, withLink(netem.LinkConfig{
		BytesPerSlot: 20_000, LatencySlots: 0, JitterSlots: 0, LossProb: 0,
	}))
	if lossless.LossCount != 0 {
		t.Errorf("lossless link dropped %d frames", lossless.LossCount)
	}

	// The link seed is respected: different seeds, different traces.
	run := func(seed uint64) *SharedUplinkResult {
		return runUplink(t, withLink(netem.LinkConfig{
			BytesPerSlot: 20_000, JitterSlots: 2, LossProb: 0.2, Seed: seed,
		}))
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
	run := func(seed uint64) *SharedUplinkResult {
		p := offloadParams()
		p.Seed = seed
		p.Link = &netem.LinkConfig{BytesPerSlot: 20_000, LatencySlots: 1}
		p.Dynamics = &MarkovBandwidth{
			GoodRate: 1.3, BadRate: 0.5,
			PGoodBad: 0.1, PBadGood: 0.2,
		}
		return runUplink(t, p)
	}
	a, b, c := run(7), run(7), run(8)
	// One seed keeps the whole result byte-identical, dynamics included.
	da, db, dc := a.Multi.PerDevice[0], b.Multi.PerDevice[0], c.Multi.PerDevice[0]
	if !reflect.DeepEqual(da.Backlog, db.Backlog) || !reflect.DeepEqual(a.Latency, b.Latency) ||
		a.LossCount != b.LossCount || !reflect.DeepEqual(da.Depth, db.Depth) {
		t.Error("same seed produced different dynamic-offload results")
	}
	// A different seed drives a different capacity path.
	if reflect.DeepEqual(da.Backlog, dc.Backlog) {
		t.Error("different seeds produced identical capacity paths")
	}
}

// Uplink runs clone the configured dynamics before reseeding, so one
// params value, its Dynamics process included, can run concurrently.
func TestSessionOffloadDynamicsConcurrentRuns(t *testing.T) {
	p := offloadParams()
	p.Slots, p.Seed = 200, 7
	p.Link = &netem.LinkConfig{BytesPerSlot: 20_000, LatencySlots: 1}
	p.Dynamics = &MarkovBandwidth{
		GoodRate: 1.3, BadRate: 0.5, PGoodBad: 0.1, PBadGood: 0.2,
	}
	const n = 4
	results := make([]*SharedUplinkResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = SharedUplink(context.Background(), p)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(results[i].Multi.PerDevice[0].Backlog, results[0].Multi.PerDevice[0].Backlog) {
			t.Fatalf("concurrent run %d diverged from run 0", i)
		}
	}
}

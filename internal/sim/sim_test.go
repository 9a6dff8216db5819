package sim

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"

	"qarv/internal/core"
	"qarv/internal/delay"
	"qarv/internal/netem"
	"qarv/internal/policy"
	"qarv/internal/quality"
	"qarv/internal/queueing"
)

// Occupancy profile of a body-like cloud, indexed by depth 0..10.
var testProfile = []int{1, 8, 60, 420, 2500, 9000, 26000, 60000, 110000, 160000, 200000}

var testDepths = []int{5, 6, 7, 8, 9, 10}

func fixtures(t *testing.T) (quality.UtilityModel, *delay.PointCostModel) {
	t.Helper()
	u, err := quality.NewLogPointUtility(testProfile)
	if err != nil {
		t.Fatal(err)
	}
	c, err := delay.NewPointCostModel(testProfile, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return u, c
}

// service rate below a(10) so max depth is unstable but depth <=9 is stable.
const testService = 170_000.0

func baseConfig(t *testing.T, p policy.Policy, slots int) Config {
	t.Helper()
	u, c := fixtures(t)
	return Config{
		Policy:   p,
		Arrivals: &queueing.DeterministicArrivals{PerSlot: 1},
		Cost:     c,
		Utility:  u,
		Service:  &delay.ConstantService{Rate: testService},
		Slots:    slots,
	}
}

func controller(t *testing.T, v float64) *core.Controller {
	t.Helper()
	u, c := fixtures(t)
	ctrl, err := core.New(core.Config{V: v, Depths: testDepths, Utility: u, Cost: c})
	if err != nil {
		t.Fatal(err)
	}
	return ctrl
}

func TestValidation(t *testing.T) {
	u, c := fixtures(t)
	max, _ := policy.NewMaxDepth(testDepths)
	valid := Config{
		Policy:   max,
		Arrivals: &queueing.DeterministicArrivals{PerSlot: 1},
		Cost:     c,
		Utility:  u,
		Service:  &delay.ConstantService{Rate: 1},
		Slots:    10,
	}
	cases := []struct {
		mutate func(*Config)
		want   error
	}{
		{func(c *Config) { c.Policy = nil }, ErrNilPolicy},
		{func(c *Config) { c.Arrivals = nil }, ErrNilArrivals},
		{func(c *Config) { c.Cost = nil }, ErrNilCost},
		{func(c *Config) { c.Utility = nil }, ErrNilUtility},
		{func(c *Config) { c.Service = nil }, ErrNilService},
		{func(c *Config) { c.Slots = 0 }, ErrBadSlots},
	}
	for i, tc := range cases {
		cfg := valid
		tc.mutate(&cfg)
		if _, err := Run(cfg); !errors.Is(err, tc.want) {
			t.Errorf("case %d: err = %v, want %v", i, err, tc.want)
		}
	}
	if _, err := Run(valid); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestMaxDepthDiverges(t *testing.T) {
	max, err := policy.NewMaxDepth(testDepths)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(baseConfig(t, max, 800))
	if err != nil {
		t.Fatal(err)
	}
	v, err := res.Verdict()
	if err != nil {
		t.Fatal(err)
	}
	if v != queueing.VerdictDiverging {
		t.Errorf("max-depth verdict = %v, want diverging", v)
	}
	// Drift = a(10) − b = 30k/slot ⇒ final ≈ 800·30000 = 2.4e7.
	wantFinal := 800 * (float64(testProfile[10]) - testService)
	if math.Abs(res.FinalBacklog-wantFinal) > wantFinal*0.01 {
		t.Errorf("final backlog = %v, want ~%v", res.FinalBacklog, wantFinal)
	}
	for _, d := range res.Depth {
		if d != 10 {
			t.Fatal("max-depth must pin depth 10")
		}
	}
}

func TestMinDepthConverges(t *testing.T) {
	min, err := policy.NewMinDepth(testDepths)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(baseConfig(t, min, 800))
	if err != nil {
		t.Fatal(err)
	}
	v, err := res.Verdict()
	if err != nil {
		t.Fatal(err)
	}
	if v != queueing.VerdictConverged {
		t.Errorf("min-depth verdict = %v, want converged", v)
	}
	if res.FinalBacklog != 0 {
		t.Errorf("final backlog = %v, want 0", res.FinalBacklog)
	}
}

func TestControllerStabilizes(t *testing.T) {
	ctrl := controller(t, 2e6)
	res, err := Run(baseConfig(t, ctrl, 2000))
	if err != nil {
		t.Fatal(err)
	}
	v, err := res.Verdict()
	if err != nil {
		t.Fatal(err)
	}
	if v != queueing.VerdictStabilized {
		t.Errorf("controller verdict = %v, want stabilized", v)
	}
	// Quality dominance: controller must beat min-depth's quality while
	// staying stable.
	min, _ := policy.NewMinDepth(testDepths)
	minRes, err := Run(baseConfig(t, min, 2000))
	if err != nil {
		t.Fatal(err)
	}
	if res.TimeAvgUtility <= minRes.TimeAvgUtility {
		t.Errorf("controller utility %v not above min-depth %v",
			res.TimeAvgUtility, minRes.TimeAvgUtility)
	}
	// Backlog bounded: far below the diverging max-depth trajectory.
	if res.MaxBacklog > 0.5*2000*(float64(testProfile[10])-testService) {
		t.Errorf("controller backlog %v looks divergent", res.MaxBacklog)
	}
}

func TestFlowConservation(t *testing.T) {
	ctrl := controller(t, 1e6)
	res, err := Run(baseConfig(t, ctrl, 500))
	if err != nil {
		t.Fatal(err)
	}
	var arrived, served float64
	for i := range res.Arrived {
		arrived += res.Arrived[i]
		served += res.Served[i]
	}
	if diff := math.Abs(arrived - served - res.FinalBacklog); diff > 1e-6 {
		t.Errorf("conservation violated by %v", diff)
	}
}

func TestBoundedBacklogOverflow(t *testing.T) {
	max, _ := policy.NewMaxDepth(testDepths)
	cfg := baseConfig(t, max, 400)
	cfg.MaxBacklog = 100_000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DroppedWork == 0 {
		t.Error("overloaded bounded queue must drop work")
	}
	if res.MaxBacklog > cfg.MaxBacklog+1e-9 {
		t.Errorf("backlog %v exceeded bound %v", res.MaxBacklog, cfg.MaxBacklog)
	}
}

func TestUtilityAccounting(t *testing.T) {
	fixed := &policy.FixedDepth{Depth: 7}
	res, err := Run(baseConfig(t, fixed, 100))
	if err != nil {
		t.Fatal(err)
	}
	u, _ := fixtures(t)
	want := u.Utility(7)
	if math.Abs(res.TimeAvgUtility-want) > 1e-12 {
		t.Errorf("time-avg utility = %v, want %v", res.TimeAvgUtility, want)
	}
	hist := res.DepthHistogram()
	if hist[7] != 100 || len(hist) != 1 {
		t.Errorf("depth histogram = %v", hist)
	}
}

func TestFrameCompletionsUnderStableLoad(t *testing.T) {
	// Stable fixed depth: every frame eventually completes with small
	// sojourn; Little's law approximately holds.
	fixed := &policy.FixedDepth{Depth: 8} // a(8)=110k < 170k service
	res, err := Run(baseConfig(t, fixed, 300))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Completed) < 299 {
		t.Errorf("only %d/300 frames completed", len(res.Completed))
	}
	if res.MeanSojourn > 1 {
		t.Errorf("mean sojourn = %v slots for an underloaded queue", res.MeanSojourn)
	}
	if gap := res.Little.LawGap(); gap > 0.5 {
		t.Errorf("Little's law gap = %v", gap)
	}
}

// TestCompareRunsAllPolicies runs one base configuration under each
// policy in turn, each on a fresh queue, and checks every result is
// labeled with its own policy.
func TestCompareRunsAllPolicies(t *testing.T) {
	max, _ := policy.NewMaxDepth(testDepths)
	min, _ := policy.NewMinDepth(testDepths)
	names := []string{"drift-plus-penalty", "only max-Depth", "only min-Depth"}
	for i, p := range []policy.Policy{controller(t, 2e6), max, min} {
		res, err := RunContext(context.Background(), baseConfig(t, p, 300))
		if err != nil {
			t.Fatal(err)
		}
		if res.PolicyName != names[i] {
			t.Errorf("result %d name = %q, want %q", i, res.PolicyName, names[i])
		}
		if res.Backlog[0] != 0 {
			t.Errorf("result %d starts at backlog %v, want a fresh queue", i, res.Backlog[0])
		}
	}
}

func TestRunMultiDistributedStability(t *testing.T) {
	// Three devices share a service budget; each runs its own controller
	// with no knowledge of the others. All must stabilize.
	u, c := fixtures(t)
	n := 3
	perDevice := testService // total = 3×170k, each share 170k
	devices := make([]Device, n)
	for i := range devices {
		ctrl, err := core.New(core.Config{V: 2e6, Depths: testDepths, Utility: u, Cost: c})
		if err != nil {
			t.Fatal(err)
		}
		devices[i] = Device{
			Policy:   ctrl,
			Cost:     c,
			Utility:  u,
			Arrivals: &queueing.DeterministicArrivals{PerSlot: 1},
		}
	}
	res, err := RunMulti(MultiConfig{
		Devices: devices,
		Service: &delay.ConstantService{Rate: perDevice * float64(n)},
		Slots:   2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res.PerDevice {
		v, err := r.Verdict()
		if err != nil {
			t.Fatal(err)
		}
		if v == queueing.VerdictDiverging {
			t.Errorf("device %d diverged", i)
		}
	}
	if res.MeanTimeAvgUtility <= 0 {
		t.Error("mean utility not computed")
	}
}

func TestRunMultiValidation(t *testing.T) {
	if _, err := RunMulti(MultiConfig{}); !errors.Is(err, ErrNoDevices) {
		t.Errorf("no devices: %v", err)
	}
	u, c := fixtures(t)
	dev := Device{
		Policy:   &policy.FixedDepth{Depth: 5},
		Cost:     c,
		Utility:  u,
		Arrivals: &queueing.DeterministicArrivals{PerSlot: 1},
	}
	if _, err := RunMulti(MultiConfig{Devices: []Device{dev}, Slots: 10}); !errors.Is(err, ErrNilService) {
		t.Errorf("nil service: %v", err)
	}
	broken := dev
	broken.Cost = nil
	if _, err := RunMulti(MultiConfig{
		Devices: []Device{broken},
		Service: &delay.ConstantService{Rate: 1},
		Slots:   10,
	}); !errors.Is(err, ErrNilCost) {
		t.Errorf("nil cost: %v", err)
	}
}

func TestFailureInjectionThrottling(t *testing.T) {
	// Service collapses to 30% in a window; the controller must ride it
	// out (no divergence) by dropping depth, then recover quality.
	ctrl := controller(t, 2e6)
	cfg := baseConfig(t, ctrl, 3000)
	cfg.Service = &delay.ModulatedService{
		Inner: &delay.ConstantService{Rate: testService},
		Factor: &netem.TraceBandwidth{Points: []netem.TracePoint{
			{Slot: 0, BytesPerSlot: 1},
			{Slot: 1000, BytesPerSlot: 0.3},
			{Slot: 1500, BytesPerSlot: 1},
		}},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v, err := res.Verdict()
	if err != nil {
		t.Fatal(err)
	}
	if v == queueing.VerdictDiverging {
		t.Error("controller diverged under throttling")
	}
	// During the throttle window the controller must shed depth.
	var inWindow, outWindow float64
	for t2 := 1100; t2 < 1500; t2++ {
		inWindow += float64(res.Depth[t2])
	}
	for t2 := 200; t2 < 600; t2++ {
		outWindow += float64(res.Depth[t2])
	}
	if inWindow/400 >= outWindow/400 {
		t.Errorf("mean depth in throttle window %v not below normal %v",
			inWindow/400, outWindow/400)
	}
}

func TestRunContextCancellation(t *testing.T) {
	cfg := baseConfig(t, controller(t, 5e5), 1_000_000)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg.Observer = func(e SlotEvent) {
		if e.Slot == 100 {
			cancel()
		}
	}
	if _, err := RunContext(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext = %v, want context.Canceled", err)
	}
}

func TestObserverMatchesTrajectory(t *testing.T) {
	cfg := baseConfig(t, controller(t, 5e5), 600)
	var events []SlotEvent
	cfg.Observer = func(e SlotEvent) { events = append(events, e) }
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != cfg.Slots {
		t.Fatalf("observer saw %d slots, want %d", len(events), cfg.Slots)
	}
	for i, e := range events {
		if e.Slot != i || e.Device != -1 ||
			e.Backlog != res.Backlog[i] || e.Depth != res.Depth[i] ||
			e.Utility != res.Utility[i] || e.Arrived != res.Arrived[i] ||
			e.Served != res.Served[i] {
			t.Fatalf("event %d = %+v disagrees with result", i, e)
		}
	}
}

func TestRunMultiObserverTagsDevices(t *testing.T) {
	cfg := baseConfig(t, controller(t, 5e5), 50)
	dev := Device{Policy: cfg.Policy, Cost: cfg.Cost, Utility: cfg.Utility, Arrivals: cfg.Arrivals}
	seen := map[int]int{}
	_, err := RunMulti(MultiConfig{
		Devices:  []Device{dev, dev, dev},
		Service:  cfg.Service,
		Slots:    50,
		Observer: func(e SlotEvent) { seen[e.Device]++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 || seen[0] != 50 || seen[1] != 50 || seen[2] != 50 {
		t.Errorf("per-device event counts = %v", seen)
	}
}

func TestConfigValidateExported(t *testing.T) {
	var c Config
	if err := c.Validate(); !errors.Is(err, ErrNilPolicy) {
		t.Errorf("empty config Validate = %v", err)
	}
	var m MultiConfig
	if err := m.Validate(); !errors.Is(err, ErrNoDevices) {
		t.Errorf("empty multi config Validate = %v", err)
	}
}

func TestJoin(t *testing.T) {
	var calls []string
	rec := func(name string) Observer {
		return func(SlotEvent) { calls = append(calls, name) }
	}
	cases := []struct {
		name      string
		observers []Observer
		want      []string // nil: Join must return a nil observer
	}{
		{name: "none"},
		{name: "only nil", observers: []Observer{nil, nil}},
		{name: "one", observers: []Observer{rec("a")}, want: []string{"a"}},
		{name: "one among nils", observers: []Observer{nil, rec("a"), nil}, want: []string{"a"}},
		{name: "two in order", observers: []Observer{rec("a"), rec("b")}, want: []string{"a", "b"}},
		{name: "two around nil", observers: []Observer{rec("b"), nil, rec("a")}, want: []string{"b", "a"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			calls = nil
			joined := Join(tc.observers...)
			if tc.want == nil {
				if joined != nil {
					t.Fatal("Join of no live observers is non-nil")
				}
				return
			}
			joined(SlotEvent{})
			if !slices.Equal(calls, tc.want) {
				t.Fatalf("calls = %v, want %v", calls, tc.want)
			}
		})
	}
}

// TestObserverCarriesFrameAccounting: the per-slot frame fields of the
// event stream add up to the run's frame accounting.
func TestObserverCarriesFrameAccounting(t *testing.T) {
	max, err := policy.NewMaxDepth(testDepths)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(t, max, 200)
	// Three max-depth frames a slot against a one-frame cap overflow by
	// more than a whole frame every slot.
	cfg.Arrivals = &queueing.DeterministicArrivals{PerSlot: 3}
	cfg.MaxBacklog = 200_000
	var frames, dropped int
	var completed []queueing.Completed
	cfg.Observer = func(e SlotEvent) {
		frames += e.Frames
		dropped += e.DroppedFrames
		completed = append(completed, e.Completed...)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if frames != 3*cfg.Slots {
		t.Errorf("event frames = %d, want %d", frames, 3*cfg.Slots)
	}
	if res.DroppedFrames == 0 || dropped != res.DroppedFrames {
		t.Errorf("event dropped frames = %d, result %d (want equal and positive)", dropped, res.DroppedFrames)
	}
	if !slices.Equal(completed, res.Completed) {
		t.Errorf("event completions (%d) disagree with the result's (%d)", len(completed), len(res.Completed))
	}
}

// TestResultCompletedSurvivesBufferReuse: the frame queue hands every
// slot's completions out of one reused buffer, and Run's
// Result.Completed must still hold each frame as it completed, not the
// buffer's last contents.
func TestResultCompletedSurvivesBufferReuse(t *testing.T) {
	// Depth 9 costs 160k against 170k of service: one frame completes
	// in its arrival slot, every slot.
	cfg := baseConfig(t, &policy.FixedDepth{Depth: 9}, 300)
	var first *queueing.Completed
	reused := 0
	var seen []queueing.Completed
	cfg.Observer = func(e SlotEvent) {
		if len(e.Completed) == 0 {
			return
		}
		if first == nil {
			first = &e.Completed[0]
		} else if &e.Completed[0] == first {
			reused++
		}
		seen = append(seen, e.Completed...)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reused < cfg.Slots/2 {
		t.Fatalf("completions came from the same buffer on only %d slots; the test needs buffer reuse", reused)
	}
	if len(res.Completed) != cfg.Slots || !slices.Equal(res.Completed, seen) {
		t.Fatalf("result holds %d completions, the slots reported %d (or they differ)", len(res.Completed), len(seen))
	}
	for i, c := range res.Completed {
		if c.ID != i || c.CompletedAt != i || c.EnqueuedAt != i || c.Sojourn != 0 || c.Depth != 9 {
			t.Fatalf("completion %d = %+v, want frame %d enqueued and completed in slot %d at depth 9", i, c, i, i)
		}
	}
}

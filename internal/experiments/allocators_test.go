package experiments

import (
	"context"
	"errors"
	"testing"

	"qarv/internal/alloc"
	"qarv/internal/netem"
	"qarv/internal/obs"
	"qarv/internal/queueing"
	"qarv/internal/sim"
)

func sweepScenario(t *testing.T) *Scenario {
	t.Helper()
	s, err := NewScenario(ScenarioParams{
		Samples:  40_000,
		Slots:    800,
		KneeSlot: 200,
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestAllocatorSweepShowsAllocationMatters is the acceptance ablation:
// on the heterogeneous 8-device fleet (mixed arrival rates and cost
// models), the information-free equal split leaves the heavy device
// diverging while ProportionalBacklog and MaxWeight stabilize every
// device from the same budget.
func TestAllocatorSweepShowsAllocationMatters(t *testing.T) {
	s := sweepScenario(t)
	// Round-robin gets demand-proportional weights: with equal weights
	// its share is budget/n by design, which rightly starves the heavy
	// device.
	specs := HeterogeneousSpecs(8)
	weights := make([]float64, len(specs))
	for i, spec := range specs {
		weights[i] = float64(spec.ArrivalsPerSlot) * spec.CostScale
	}
	axis := AxisAllocator("equal", "proportional", "maxweight")
	axis.Points = append(axis.Points, AxisPoint{
		Label: "wrr",
		Apply: func(c *SweepCell) error {
			c.NewAllocator = func() (alloc.Allocator, error) {
				return alloc.NewWeightedRoundRobin(weights...), nil
			}
			return nil
		},
	})
	rows := runAxis(t, s, 1600, axis)
	byName := map[string]SweepRow{}
	for _, r := range rows {
		multi := r.Detail.Multi
		byName[multi.Allocator] = r
		if len(multi.PerDevice) != 8 {
			t.Fatalf("%s: %d devices, want 8", multi.Allocator, len(multi.PerDevice))
		}
	}
	if eq := byName["equal-split"]; eq.Verdicts.Diverging == 0 {
		t.Error("equal split must leave at least one device diverging")
	} else if v, err := eq.Detail.Multi.PerDevice[0].Verdict(); err != nil || v != queueing.VerdictDiverging {
		t.Errorf("expected the heavy device 0 to diverge under equal split, got %v (%v)", v, err)
	}
	for _, name := range []string{"proportional-backlog", "max-weight", "weighted-round-robin"} {
		if r := byName[name]; r.Verdicts.Diverging != 0 {
			t.Errorf("%s left %d devices diverging", name, r.Verdicts.Diverging)
		}
	}
	// The frame accounting reaches the rows: a stabilized fleet completes
	// frames with measurable sojourns.
	if mw := byName["max-weight"]; mw.MeanSojourn <= 0 {
		t.Errorf("max-weight fleet MeanSojourn = %v, want > 0", mw.MeanSojourn)
	}
}

func TestFleetMinDemandMatchesSpecs(t *testing.T) {
	s := sweepScenario(t)
	aMin := s.Cost.FrameCost(5)
	specs := []AllocDeviceSpec{{ArrivalsPerSlot: 3, CostScale: 2}, {ArrivalsPerSlot: 1, CostScale: 0.5}}
	want := 6*aMin + 0.5*aMin
	if got := FleetMinDemand(s, specs); got != want {
		t.Errorf("FleetMinDemand = %v, want %v", got, want)
	}
	// Unset or non-positive fields take the defaults each device runs
	// with: one frame per slot at cost scale 1.
	unit := FleetMinDemand(s, []AllocDeviceSpec{{ArrivalsPerSlot: 1, CostScale: 1}})
	if unit != aMin {
		t.Errorf("unit device demand = %v, want %v", unit, aMin)
	}
	for _, spec := range []AllocDeviceSpec{{}, {ArrivalsPerSlot: -2}, {CostScale: -3}} {
		if got := FleetMinDemand(s, []AllocDeviceSpec{spec}); got != unit {
			t.Errorf("FleetMinDemand(%+v) = %v, want the unit device's %v", spec, got, unit)
		}
	}
}

func TestSharedUplinkFleetDelivers(t *testing.T) {
	res, err := SharedUplink(context.Background(), SharedUplinkParams{
		ScenarioParams: ScenarioParams{Samples: 40_000, Slots: 800, KneeSlot: 200, Seed: 3},
		Devices:        3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Allocator != "equal-split" {
		t.Errorf("default allocator = %q", res.Allocator)
	}
	if res.Bandwidth <= 0 {
		t.Fatal("bandwidth not sized")
	}
	delivered := 0
	completed := 0
	for i, row := range res.PerDevice {
		if row.Verdict == "diverging" {
			t.Errorf("device %d uplink queue diverged", i)
		}
		if row.Delivered == 0 {
			t.Errorf("device %d delivered nothing", i)
		}
		delivered += row.Delivered
		completed += len(res.Multi.PerDevice[i].Completed)
	}
	// Every frame that finished serializing either delivered or was lost
	// on the propagation leg; the remainder is still queued at the end.
	if delivered+res.LossCount != completed {
		t.Errorf("delivered %d + lost %d != %d completed frames", delivered, res.LossCount, completed)
	}
	if completed == 0 || completed > 3*800 {
		t.Errorf("completed %d frames of %d offered", completed, 3*800)
	}
	// End-to-end latency must include the propagation floor.
	if res.MeanLatency <= res.Params.Link.LatencySlots {
		t.Errorf("mean latency %v below propagation floor %v", res.MeanLatency, res.Params.Link.LatencySlots)
	}
	if res.P95Latency < res.MeanLatency {
		t.Errorf("p95 %v below mean %v", res.P95Latency, res.MeanLatency)
	}
}

func TestSharedUplinkAllocatorShiftsContention(t *testing.T) {
	// A heterogeneous fleet on one uplink: the heavy device's byte queue
	// must fare no worse under MaxWeight than under the equal split.
	base := SharedUplinkParams{
		Specs: []AllocDeviceSpec{
			{ArrivalsPerSlot: 2, CostScale: 1},
			{ArrivalsPerSlot: 1, CostScale: 0.5},
			{ArrivalsPerSlot: 1, CostScale: 0.5},
		},
		ScenarioParams: ScenarioParams{Samples: 40_000, Slots: 600, KneeSlot: 150, Seed: 3},
	}
	equal, err := SharedUplink(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	mw := base
	mw.Allocator = alloc.NewMaxWeight()
	shifted, err := SharedUplink(context.Background(), mw)
	if err != nil {
		t.Fatal(err)
	}
	if shifted.PerDevice[0].TimeAvgBacklogBytes > equal.PerDevice[0].TimeAvgBacklogBytes*1.05 {
		t.Errorf("max-weight heavy-device backlog %v worse than equal %v",
			shifted.PerDevice[0].TimeAvgBacklogBytes, equal.PerDevice[0].TimeAvgBacklogBytes)
	}
}

func TestSharedUplinkLosslessLinkOverride(t *testing.T) {
	// A literal-zeros Link config must be honored verbatim: no loss, no
	// propagation delay, no jitter, rather than the default shape a nil
	// Link gets.
	res, err := SharedUplink(context.Background(), SharedUplinkParams{
		ScenarioParams: ScenarioParams{Samples: 40_000, Slots: 400, KneeSlot: 100, Seed: 3},
		Devices:        2,
		Link:           &netem.LinkConfig{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.LossCount != 0 {
		t.Errorf("lossless link lost %d frames", res.LossCount)
	}
	completed := 0
	for _, r := range res.Multi.PerDevice {
		completed += len(r.Completed)
	}
	delivered := 0
	for _, row := range res.PerDevice {
		delivered += row.Delivered
	}
	if delivered != completed {
		t.Errorf("delivered %d != completed %d on a lossless link", delivered, completed)
	}
}

func TestSharedUplinkObserverTagsDevices(t *testing.T) {
	seen := map[int]int{}
	_, err := SharedUplink(context.Background(), SharedUplinkParams{
		ScenarioParams: ScenarioParams{Samples: 40_000, Slots: 200, KneeSlot: 100, Seed: 3},
		Devices:        2,
		Observer:       func(e sim.SlotEvent) { seen[e.Device]++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 || seen[0] != 200 || seen[1] != 200 {
		t.Errorf("per-device event counts = %v", seen)
	}
}

// TestOffloadObserverReportsLoss: link loss happens after the kernel,
// when completed frames cross the propagation leg, so the slot events
// carry no loss. It shows in LossCount and in the
// offload_frames_lost_total counter instead, and every offered frame's
// bytes still reach the uplink.
func TestOffloadObserverReportsLoss(t *testing.T) {
	p := offloadParams()
	p.Metrics = obs.NewRegistry()
	var offered float64
	p.Observer = func(e sim.SlotEvent) {
		offered += e.Arrived
		if e.Dropped != 0 || e.DroppedFrames != 0 {
			t.Errorf("slot %d: kernel event reports a drop (%v bytes, %d frames)", e.Slot, e.Dropped, e.DroppedFrames)
		}
	}
	res, dev := offload(t, p)
	if res.LossCount == 0 {
		t.Error("1% loss link lost nothing over 800 frames")
	}
	if got := p.Metrics.Counter(MetricOffloadLost).Value(); got != int64(res.LossCount) {
		t.Errorf("%s = %d, result says %d", MetricOffloadLost, got, res.LossCount)
	}
	// Every offered frame's bytes occupied the uplink: Arrived must sum
	// to the full byte stream, lost frames included.
	var want float64
	for _, d := range dev.Depth {
		want += float64(res.Bytes[d])
	}
	if offered != want {
		t.Errorf("observer Arrived sum %v != offered bytes %v", offered, want)
	}
}

// TestSharedUplinkTimeVaryingCapacity: the shared uplink's total
// serialization budget can move every slot — Dynamics is a factor on
// the auto-sized bandwidth the allocator splits — and the run stays
// deterministic per seed (the process is reseeded from Seed).
func TestSharedUplinkTimeVaryingCapacity(t *testing.T) {
	run := func() *SharedUplinkResult {
		// Mean-preserving Markov around the auto-sized bandwidth.
		res, err := SharedUplink(context.Background(), SharedUplinkParams{
			ScenarioParams: ScenarioParams{Samples: 40_000, Slots: 800, KneeSlot: 200, Seed: 3},
			Devices:        3,
			Allocator:      alloc.NewMaxWeight(),
			Dynamics: &netem.MarkovBandwidth{
				GoodRate: 1.4, BadRate: 0.6,
				PGoodBad: 0.1, PBadGood: 0.1,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := run()
	if a.Multi == nil || len(a.PerDevice) != 3 {
		t.Fatalf("result shape: %+v", a)
	}
	for i, row := range a.PerDevice {
		if row.Delivered == 0 {
			t.Errorf("device %d delivered nothing under varying capacity", i)
		}
	}
	b := run()
	if a.MeanLatency != b.MeanLatency || a.LossCount != b.LossCount {
		t.Errorf("time-varying shared uplink not deterministic: %v/%d vs %v/%d",
			a.MeanLatency, a.LossCount, b.MeanLatency, b.LossCount)
	}
	for i := range a.PerDevice {
		if a.PerDevice[i].TimeAvgBacklogBytes != b.PerDevice[i].TimeAvgBacklogBytes {
			t.Fatalf("device %d backlog diverged across identical runs", i)
		}
	}
	// An invalid process is rejected up front.
	if _, err := SharedUplink(context.Background(), SharedUplinkParams{
		ScenarioParams: ScenarioParams{Samples: 40_000, Slots: 100, KneeSlot: 50, Seed: 3},
		Devices:        2,
		Dynamics:       &netem.MarkovBandwidth{GoodRate: -1},
	}); !errors.Is(err, netem.ErrBadMarkov) {
		t.Errorf("invalid process: %v", err)
	}
}

// TestSharedUplinkValidatesBeforeRunning: a malformed link is rejected
// before the capture and the fleet run, so the observer never fires.
func TestSharedUplinkValidatesBeforeRunning(t *testing.T) {
	calls := 0
	_, err := SharedUplink(context.Background(), SharedUplinkParams{
		ScenarioParams: ScenarioParams{Samples: 40_000, Slots: 400, KneeSlot: 100, Seed: 3},
		Devices:        2,
		Link:           &netem.LinkConfig{LossProb: -0.5},
		Observer:       func(sim.SlotEvent) { calls++ },
	})
	if !errors.Is(err, netem.ErrBadLoss) {
		t.Errorf("err = %v, want ErrBadLoss", err)
	}
	if calls != 0 {
		t.Errorf("observer fired %d times before the link was rejected", calls)
	}
	if _, err := SharedUplink(context.Background(), SharedUplinkParams{
		ScenarioParams: ScenarioParams{ServiceFraction: 2},
	}); !errors.Is(err, ErrBadServiceFraction) {
		t.Errorf("service fraction 2: err = %v, want ErrBadServiceFraction", err)
	}
}

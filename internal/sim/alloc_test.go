package sim

import (
	"context"
	"fmt"
	"math"
	"testing"

	"qarv/internal/alloc"
	"qarv/internal/core"
	"qarv/internal/delay"
	"qarv/internal/policy"
	"qarv/internal/queueing"
)

// TestBoundedRunFrameAccountingAgrees is the drop-divergence property
// test: under an active MaxBacklog bound the frame queue's unserved work
// must equal the scalar backlog on every slot — overflow is propagated
// tail-first into the frame queue instead of silently inflating sojourn
// statistics.
func TestBoundedRunFrameAccountingAgrees(t *testing.T) {
	u, c := fixtures(t)
	max, err := policy.NewMaxDepth(testDepths)
	if err != nil {
		t.Fatal(err)
	}
	// Two frames per slot against a bound below one frame's work: the
	// overflow spans whole frames (counted) plus partial trims.
	const slots = 600
	dev := newDeviceRunner(max, c, u, &queueing.DeterministicArrivals{PerSlot: 2}, 100_000, slots)
	for tt := 0; tt < slots; tt++ {
		dev.step(tt, testService, -1, nil)
		if diff := math.Abs(dev.k.frames.WorkBacklog() - dev.k.Level()); diff > 1e-9 {
			t.Fatalf("slot %d: frame work %v != scalar backlog %v (diff %v)",
				tt, dev.k.frames.WorkBacklog(), dev.k.Level(), diff)
		}
	}
	res := dev.finalize(slots)
	if res.DroppedWork == 0 {
		t.Fatal("test never exercised overflow")
	}
	if res.DroppedFrames == 0 {
		t.Error("overflow must surface a dropped-frame count")
	}
	// Sojourns must reflect only admitted work: the bounded queue holds
	// at most 100k work against 170k service, so no admitted frame waits
	// more than one slot.
	for _, fr := range res.Completed {
		if fr.Sojourn > 1 {
			t.Errorf("frame %d sojourn %d slots exceeds the bounded queue's drain time", fr.ID, fr.Sojourn)
		}
	}
	// λ counts admitted frames only: of the 2 offered per slot, one is
	// overflow-dropped whole every slot, so the admitted rate is 1.
	if lam := res.Little.Lambda(); math.Abs(lam-1) > 1e-12 {
		t.Errorf("lambda = %v, want 1 (admitted frames only)", lam)
	}
	if got := res.DroppedFrames + len(res.Completed) + dev.k.QueuedFrames(); got != 2*slots {
		t.Errorf("dropped %d + completed %d + queued %d != %d offered",
			res.DroppedFrames, len(res.Completed), dev.k.QueuedFrames(), 2*slots)
	}
}

// negativeArrivals returns a poisoned count on even slots — the
// regression shape for the λ-corruption fix.
type negativeArrivals struct{}

func (negativeArrivals) Frames(t int) int {
	if t%2 == 0 {
		return -3
	}
	return 1
}
func (negativeArrivals) Name() string { return "negative" }

func TestNegativeArrivalsClamped(t *testing.T) {
	fixed := &policy.FixedDepth{Depth: 5}
	cfg := baseConfig(t, fixed, 400)
	cfg.Arrivals = negativeArrivals{}
	res, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Half the slots deliver one frame, the poisoned half none: λ must
	// be exactly 0.5, never dragged negative.
	if lam := res.Little.Lambda(); math.Abs(lam-0.5) > 1e-12 {
		t.Errorf("lambda = %v, want 0.5", lam)
	}
	if gap := res.Little.LawGap(); math.IsNaN(gap) || gap < 0 {
		t.Errorf("LawGap = %v", gap)
	}
	if len(res.Completed) != 200 {
		t.Errorf("completed %d frames, want 200", len(res.Completed))
	}
}

// legacyRunMulti reimplements the pre-allocator multi-device loop (equal
// split, scalar backlogs only) as the byte-for-byte reference. Besides
// each device's Result it returns the work each device enqueued and was
// served per slot, which the slot events carry.
func legacyRunMulti(cfg MultiConfig) (results []*Result, arrived, served [][]float64) {
	n := len(cfg.Devices)
	results = make([]*Result, n)
	arrived, served = make([][]float64, n), make([][]float64, n)
	backlogs := make([]*queueing.Backlog, n)
	for i, dev := range cfg.Devices {
		results[i] = &Result{
			PolicyName: dev.Policy.Name(),
			Backlog:    make([]float64, cfg.Slots),
			Depth:      make([]int, cfg.Slots),
			Utility:    make([]float64, cfg.Slots),
		}
		arrived[i], served[i] = make([]float64, cfg.Slots), make([]float64, cfg.Slots)
		backlogs[i] = &queueing.Backlog{}
	}
	utilSums := make([]float64, n)
	backlogSums := make([]float64, n)
	for t := 0; t < cfg.Slots; t++ {
		share := cfg.Service.Service(t) / float64(n)
		for i, dev := range cfg.Devices {
			q := backlogs[i].Level()
			res := results[i]
			res.Backlog[t] = q
			backlogSums[i] += q
			if q > res.MaxBacklog {
				res.MaxBacklog = q
			}
			d := dev.Policy.Decide(t, q)
			res.Depth[t] = d
			u := dev.Utility.Utility(d)
			res.Utility[t] = u
			utilSums[i] += u
			var work float64
			for f := 0; f < dev.Arrivals.Frames(t); f++ {
				work += dev.Cost.FrameCost(d)
			}
			arrived[i][t] = work
			served[i][t] = backlogs[i].Step(work, share)
		}
	}
	for i, res := range results {
		res.FinalBacklog = backlogs[i].Level()
		res.TimeAvgUtility = utilSums[i] / float64(cfg.Slots)
		res.TimeAvgBacklog = backlogSums[i] / float64(cfg.Slots)
	}
	return results, arrived, served
}

func multiFixtureConfig(t *testing.T, slots int) MultiConfig {
	t.Helper()
	u, c := fixtures(t)
	devices := make([]Device, 3)
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
	return MultiConfig{
		Devices: devices,
		Service: &delay.ConstantService{Rate: testService * 3},
		Slots:   slots,
	}
}

// TestEqualSplitMatchesLegacyTrajectories pins the refactor: the default
// allocator must reproduce the pre-allocator multi-device trajectories
// byte-for-byte (identical float arithmetic, identical call order).
func TestEqualSplitMatchesLegacyTrajectories(t *testing.T) {
	want, wantArrived, wantServed := legacyRunMulti(multiFixtureConfig(t, 900))
	cfg := multiFixtureConfig(t, 900)
	arrived, served := make([][]float64, len(cfg.Devices)), make([][]float64, len(cfg.Devices))
	cfg.Observer = func(e SlotEvent) {
		arrived[e.Device] = append(arrived[e.Device], e.Arrived)
		served[e.Device] = append(served[e.Device], e.Served)
	}
	got, err := RunMultiContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Allocator != "equal-split" {
		t.Fatalf("default allocator = %q", got.Allocator)
	}
	for i := range want {
		w, g := want[i], got.PerDevice[i]
		for s := 0; s < 900; s++ {
			if g.Backlog[s] != w.Backlog[s] || g.Depth[s] != w.Depth[s] ||
				arrived[i][s] != wantArrived[i][s] || served[i][s] != wantServed[i][s] ||
				g.Utility[s] != w.Utility[s] {
				t.Fatalf("device %d slot %d diverges from legacy loop", i, s)
			}
		}
		if g.FinalBacklog != w.FinalBacklog || g.TimeAvgBacklog != w.TimeAvgBacklog ||
			g.TimeAvgUtility != w.TimeAvgUtility || g.MaxBacklog != w.MaxBacklog {
			t.Fatalf("device %d summaries diverge from legacy loop", i)
		}
	}
}

// TestMultiResultsCarryFrameAccounting: the unified loop gives every
// device the per-frame statistics that used to be single-run-only.
func TestMultiResultsCarryFrameAccounting(t *testing.T) {
	res, err := RunMultiContext(context.Background(), multiFixtureConfig(t, 2000))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res.PerDevice {
		if len(r.Completed) == 0 {
			t.Fatalf("device %d completed no frames", i)
		}
		if r.MeanSojourn <= 0 {
			t.Errorf("device %d MeanSojourn = %v, want > 0 (stabilized queue waits)", i, r.MeanSojourn)
		}
		if r.Little.Lambda() <= 0 || r.Little.W() <= 0 || r.Little.L() <= 0 {
			t.Errorf("device %d Little stats empty: λ=%v W=%v L=%v",
				i, r.Little.Lambda(), r.Little.W(), r.Little.L())
		}
	}
}

// stubCost charges Scale×depth work units per frame — cheap heterogeneous
// cost models for the allocator fleet test.
type stubCost struct{ Scale float64 }

func (c stubCost) FrameCost(depth int) float64 { return c.Scale * float64(depth) }
func (c stubCost) Name() string                { return fmt.Sprintf("stub(%v)", c.Scale) }

// TestAllocatorStabilizesHeterogeneousFleet: one heavy device among
// seven light ones. Equal split starves the heavy device (its minimum
// demand exceeds budget/8) while backlog-aware allocators stabilize the
// whole fleet from the same budget — the allocation policy itself is the
// lever.
func TestAllocatorStabilizesHeterogeneousFleet(t *testing.T) {
	u, _ := fixtures(t)
	fleet := func() []Device {
		devs := make([]Device, 8)
		devs[0] = Device{
			Policy:   &policy.FixedDepth{Depth: 5},
			Cost:     stubCost{Scale: 2},
			Utility:  u,
			Arrivals: &queueing.DeterministicArrivals{PerSlot: 3}, // demand 30/slot
		}
		for i := 1; i < 8; i++ {
			devs[i] = Device{
				Policy:   &policy.FixedDepth{Depth: 5},
				Cost:     stubCost{Scale: 0.5},
				Utility:  u,
				Arrivals: &queueing.DeterministicArrivals{PerSlot: 1}, // demand 2.5/slot
			}
		}
		return devs
	}
	// Fleet demand 47.5/slot; budget 60 ⇒ feasible, but an equal share
	// (7.5) is far below the heavy device's 30.
	run := func(a alloc.Allocator) *MultiResult {
		t.Helper()
		res, err := RunMultiContext(context.Background(), MultiConfig{
			Devices:   fleet(),
			Service:   &delay.ConstantService{Rate: 60},
			Allocator: a,
			Slots:     800,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	diverging := func(res *MultiResult) []int {
		t.Helper()
		var out []int
		for i, r := range res.PerDevice {
			v, err := r.Verdict()
			if err != nil {
				t.Fatal(err)
			}
			if v == queueing.VerdictDiverging {
				out = append(out, i)
			}
		}
		return out
	}

	if div := diverging(run(alloc.EqualSplit{})); len(div) == 0 {
		t.Error("equal split must leave the heavy device diverging")
	}
	for _, a := range []alloc.Allocator{&alloc.ProportionalBacklog{}, alloc.NewMaxWeight(), alloc.NewWeightedRoundRobin()} {
		if div := diverging(run(a)); len(div) != 0 {
			t.Errorf("%s left devices %v diverging", a.Name(), div)
		}
	}
}

// TestMultiObserverReportsDrops: bounded per-device queues surface their
// overflow through SlotEvent.Dropped and Result.DroppedFrames.
func TestMultiObserverReportsDrops(t *testing.T) {
	u, c := fixtures(t)
	max, _ := policy.NewMaxDepth(testDepths)
	var droppedSeen float64
	res, err := RunMultiContext(context.Background(), MultiConfig{
		Devices: []Device{{
			Policy:     max,
			Cost:       c,
			Utility:    u,
			Arrivals:   &queueing.DeterministicArrivals{PerSlot: 2},
			MaxBacklog: 150_000,
		}},
		Service:  &delay.ConstantService{Rate: testService},
		Slots:    400,
		Observer: func(e SlotEvent) { droppedSeen += e.Dropped },
	})
	if err != nil {
		t.Fatal(err)
	}
	r := res.PerDevice[0]
	if r.DroppedWork == 0 || r.DroppedFrames == 0 {
		t.Fatalf("bounded device dropped work=%v frames=%d", r.DroppedWork, r.DroppedFrames)
	}
	if math.Abs(droppedSeen-r.DroppedWork) > 1e-9 {
		t.Errorf("observer saw %v dropped, result says %v", droppedSeen, r.DroppedWork)
	}
	if r.MaxBacklog > 150_000+1e-9 {
		t.Errorf("backlog %v exceeded per-device bound", r.MaxBacklog)
	}
}

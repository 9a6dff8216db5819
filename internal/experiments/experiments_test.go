package experiments

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"qarv/internal/quality"
	"qarv/internal/queueing"
)

// testParams keeps scenario generation fast for unit tests: a smaller
// sample budget shrinks the frame but preserves the occupancy growth law.
func testParams() ScenarioParams {
	return ScenarioParams{
		Samples: 60_000,
		Slots:   800,
		Seed:    1,
	}
}

// The scenario is expensive to build (synthetic frame + octree), so tests
// share one instance.
var (
	scenarioOnce sync.Once
	sharedScn    *Scenario
	scenarioErr  error
)

func sharedScenario(t *testing.T) *Scenario {
	t.Helper()
	scenarioOnce.Do(func() {
		sharedScn, scenarioErr = NewScenario(testParams())
	})
	if scenarioErr != nil {
		t.Fatal(scenarioErr)
	}
	return sharedScn
}

func TestNewScenarioCalibration(t *testing.T) {
	s := sharedScenario(t)
	if s.V <= 0 {
		t.Fatalf("calibrated V = %v", s.V)
	}
	// Service rate must sit strictly between a(9) and a(10).
	a9 := s.Cost.FrameCost(9)
	a10 := s.Cost.FrameCost(10)
	if s.ServiceRate <= a9 || s.ServiceRate >= a10 {
		t.Errorf("service %v not in (a(9)=%v, a(10)=%v)", s.ServiceRate, a9, a10)
	}
	// The knee prediction must hold in closed form: Q*/r = kneeSlot.
	ctrl, err := s.Controller()
	if err != nil {
		t.Fatal(err)
	}
	r := a10 - s.ServiceRate
	predicted := ctrl.SwitchBacklog() / r
	if math.Abs(predicted-s.Params.KneeSlot) > 1 {
		t.Errorf("closed-form knee %v, want %v", predicted, s.Params.KneeSlot)
	}
}

func TestNewScenarioRejectsBadDepths(t *testing.T) {
	p := testParams()
	p.Depths = []int{5, 12}
	p.CaptureDepth = 10
	if _, err := NewScenario(p); !errors.Is(err, ErrDepthBeyondCapture) {
		t.Errorf("err = %v", err)
	}
	p = testParams()
	p.Character = "nobody"
	if _, err := NewScenario(p); err == nil {
		t.Error("unknown character must fail")
	}
	// Out-of-range fractions are rejected, not silently replaced by the
	// default; zero still selects it.
	for _, f := range []float64{-0.1, 1, 1.5, math.NaN()} {
		p = testParams()
		p.ServiceFraction = f
		if _, err := NewScenario(p); !errors.Is(err, ErrBadServiceFraction) {
			t.Errorf("ServiceFraction %v: err = %v, want ErrBadServiceFraction", f, err)
		}
	}
}

// TestNewScenarioDepthOrder: the candidate set is a set — listing it
// deepest first, or in any other order, calibrates the same scenario.
func TestNewScenarioDepthOrder(t *testing.T) {
	build := func(depths ...int) *Scenario {
		s, err := NewScenario(ScenarioParams{Samples: 40_000, Depths: depths})
		if err != nil {
			t.Fatalf("depths %v: %v", depths, err)
		}
		return s
	}
	for _, pair := range [][2][]int{
		{{5, 6, 7, 8, 9, 10}, {10, 9, 8, 7, 6, 5}},
		{{5, 6, 10}, {10, 5, 6}},
	} {
		asc, other := build(pair[0]...), build(pair[1]...)
		if asc.ServiceRate != other.ServiceRate || asc.V != other.V {
			t.Errorf("depths %v: service %v, V %v; ascending %v: service %v, V %v",
				pair[1], other.ServiceRate, other.V, pair[0], asc.ServiceRate, asc.V)
		}
	}
}

func TestFig1Reproduction(t *testing.T) {
	rows, err := Fig1(ScenarioParams{Samples: 60_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	if err := Fig1Invariants(rows); err != nil {
		t.Fatal(err)
	}
	// The paper's depths 5..7: each level multiplies rendered points
	// surface-like (×2–6).
	for i := 1; i < 3; i++ {
		ratio := float64(rows[i].Points) / float64(rows[i-1].Points)
		if ratio < 2 || ratio > 6 {
			t.Errorf("depth %d->%d point ratio %.2f outside surface band",
				rows[i-1].Depth, rows[i].Depth, ratio)
		}
	}
	// Depth 10 renders (essentially) the full capture. The octree's cube
	// is anchored differently from the capture lattice, so a few voxels
	// merge; the ratio must still be ~1.
	last := rows[len(rows)-1]
	if last.PointRatio < 0.99 {
		t.Errorf("depth-10 ratio = %v, want ~1", last.PointRatio)
	}
}

func TestFig1RejectsDepthBeyondCapture(t *testing.T) {
	// Parameters are validated before the capture: the default
	// 400k-sample frame is never generated, and the error is the
	// sentinel rather than an LOD failure after the capture.
	rows, err := Fig1(ScenarioParams{CaptureDepth: 8, Depths: []int{5, 9}})
	if !errors.Is(err, ErrDepthBeyondCapture) {
		t.Fatalf("Fig1 with depth 9 over an 8-deep capture: rows %v, err %v", rows, err)
	}
}

func TestFig1InvariantsCatchViolations(t *testing.T) {
	bad := []Fig1Row{
		{Depth: 5, Points: 100, PSNR: 30, Hausdorff: 1},
		{Depth: 6, Points: 90, PSNR: 35, Hausdorff: 0.5},
	}
	if err := Fig1Invariants(bad); err == nil {
		t.Error("decreasing points must be caught")
	}
}

func TestFig2ShapeMatchesPaper(t *testing.T) {
	// The headline reproduction: max diverges, min converges, Proposed
	// stabilizes with its knee at ~400 like the paper's Fig. 2.
	s := sharedScenario(t)
	res, err := Fig2(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CheckShape(); err != nil {
		t.Fatal(err)
	}
	// Control actions (Fig. 2(b)): Proposed pins depth 10 before the knee
	// and mixes lower depths after; baselines pin their extremes.
	knee := res.KneeSlot()
	for t2 := 0; t2 < knee; t2++ {
		if res.Proposed.Depth[t2] != 10 {
			t.Fatalf("slot %d before knee: depth %d", t2, res.Proposed.Depth[t2])
		}
	}
	sawLower := false
	for t2 := knee; t2 < len(res.Proposed.Depth); t2++ {
		if res.Proposed.Depth[t2] < 10 {
			sawLower = true
			break
		}
	}
	if !sawLower {
		t.Error("Proposed never dropped depth after knee")
	}
	for _, d := range res.MaxDepth.Depth {
		if d != 10 {
			t.Fatal("max-Depth must pin 10")
		}
	}
	for _, d := range res.MinDepth.Depth {
		if d != 5 {
			t.Fatal("min-Depth must pin 5")
		}
	}
}

func TestFig2Tables(t *testing.T) {
	s := sharedScenario(t)
	res, err := Fig2(s)
	if err != nil {
		t.Fatal(err)
	}
	bt, err := res.BacklogTable()
	if err != nil {
		t.Fatal(err)
	}
	if len(bt.Series) != 3 || len(bt.X) != s.Params.Slots {
		t.Errorf("backlog table: %d series × %d", len(bt.Series), len(bt.X))
	}
	ct, err := res.ControlTable()
	if err != nil {
		t.Fatal(err)
	}
	if len(ct.Series) != 3 {
		t.Errorf("control table series = %d", len(ct.Series))
	}
	if ct.Series[1].Values[0] != 10 || ct.Series[2].Values[0] != 5 {
		t.Error("control table baseline rows wrong")
	}
}

// runAxis runs a one-axis sweep on the pool backend at the given
// horizon and returns its rows in axis order.
func runAxis(t *testing.T, s *Scenario, slots int, axis SweepAxis) []SweepRow {
	t.Helper()
	sw, err := NewSweep(s, axis)
	if err != nil {
		t.Fatal(err)
	}
	sw.Slots = slots
	rep, err := sw.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != len(axis.Points) {
		t.Fatalf("rows = %d, want %d", len(rep.Rows), len(axis.Points))
	}
	return rep.Rows
}

// utilityModels lists the utility-model ablation's models over the
// scenario's occupancy profile.
func utilityModels(t *testing.T, s *Scenario) []quality.UtilityModel {
	t.Helper()
	logU, err := quality.NewLogPointUtility(s.Profile)
	if err != nil {
		t.Fatal(err)
	}
	normU, err := quality.NewNormalizedPointUtility(s.Profile)
	if err != nil {
		t.Fatal(err)
	}
	return []quality.UtilityModel{logU, normU, &quality.LinearDepthUtility{MaxDepth: s.Params.CaptureDepth}}
}

// utilityAxis sweeps the models, each cell recalibrating V for its
// model so knees stay comparable.
func utilityAxis(models []quality.UtilityModel) SweepAxis {
	axis := SweepAxis{Name: "utility"}
	for _, m := range models {
		m := m
		axis.Points = append(axis.Points, AxisPoint{
			Label: m.Name(),
			Apply: func(c *SweepCell) error {
				c.Utility = m
				c.RecalibrateV = true
				return nil
			},
		})
	}
	return axis
}

func TestVSweepTradeoff(t *testing.T) {
	// The knee slot scales with V (O(V) backlog needs O(V) time), so the
	// horizon must cover the largest factor's knee plus settling time.
	s := sharedScenario(t)
	factors := []float64{0.1, 1, 3}
	rows := runAxis(t, s, 8000, AxisV(factors...))
	// Backlog grows with V (O(V)); utility is non-decreasing in V.
	for i := 1; i < len(rows); i++ {
		if rows[i].Backlog <= rows[i-1].Backlog {
			t.Errorf("backlog not increasing with V: %+v", rows)
		}
		if rows[i].Utility < rows[i-1].Utility-1e-9 {
			t.Errorf("utility decreased with V: %+v", rows)
		}
	}
	// The theoretical utility-gap bound shrinks with V.
	gap := func(f float64) float64 {
		ctrl, err := s.ControllerWithV(s.V * f)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ctrl.TheoreticalBounds(s.ServiceRate)
		if err != nil {
			t.Fatal(err)
		}
		return b.UtilityGap
	}
	if gap(factors[0]) <= gap(factors[2]) {
		t.Error("utility-gap bound must shrink with V")
	}
	// None of the V settings may diverge (all stabilize).
	for i, r := range rows {
		if r.Verdict == queueing.VerdictDiverging.String() {
			t.Errorf("V=%g×V* diverged", factors[i])
		}
	}
}

func TestRateSweepGracefulDegradation(t *testing.T) {
	s := sharedScenario(t)
	fractions := []float64{0.7, 1.0, 1.3}
	rows := runAxis(t, s, 1600, AxisServiceRate(fractions...))
	// More service ⇒ deeper average depth (more quality extracted).
	for i := 1; i < len(rows); i++ {
		if rows[i].MeanDepth <= rows[i-1].MeanDepth {
			t.Errorf("mean depth not increasing with rate: %+v", rows)
		}
	}
	// Even at 0.7× the controller must not diverge (depth 5..9 remain
	// stabilizable: a(9) < 0.7·b would be needed... verify no divergence
	// whenever some depth is stabilizable).
	for i, r := range rows {
		if s.Cost.FrameCost(s.Params.Depths[0]) < s.ServiceRate*fractions[i] &&
			r.Verdict == queueing.VerdictDiverging.String() {
			t.Errorf("rate %v diverged despite stabilizable depths", fractions[i])
		}
	}
}

func TestUtilitySweepModelIndependence(t *testing.T) {
	s := sharedScenario(t)
	rows := runAxis(t, s, 800, utilityAxis(utilityModels(t, s)))
	for _, r := range rows {
		model := r.Coords[0].Label
		if r.Verdict == queueing.VerdictDiverging.String() {
			t.Errorf("model %s diverged", model)
		}
		// Knee recalibration keeps the drop near the configured slot.
		if r.KneeSlot < 0 || math.Abs(float64(r.KneeSlot)-s.Params.KneeSlot) > 0.2*s.Params.KneeSlot {
			t.Errorf("model %s knee at %d, want ~%v", model, r.KneeSlot, s.Params.KneeSlot)
		}
	}
}

// TestMultiDeviceAllStabilize runs the distributed claim (§II) as one
// allocator cell: three devices, each on its own backlog alone, share
// three times the single-device service under an equal split.
func TestMultiDeviceAllStabilize(t *testing.T) {
	s := sharedScenario(t)
	unit := AllocDeviceSpec{ArrivalsPerSlot: 1, CostScale: 1}
	sw, err := NewSweep(s, AxisAllocator("equal"))
	if err != nil {
		t.Fatal(err)
	}
	sw.Slots = 1600
	sw.Configure(func(c *SweepCell) error {
		c.Devices = []AllocDeviceSpec{unit, unit, unit}
		c.Budget = 3 * s.ServiceRate
		return nil
	})
	rep, err := sw.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	devices := rep.Rows[0].Detail.Multi.PerDevice
	if len(devices) != 3 {
		t.Fatalf("devices = %d", len(devices))
	}
	for i, r := range devices {
		if v, err := r.Verdict(); err != nil || v == queueing.VerdictDiverging {
			t.Errorf("device %d verdict %v (err %v)", i, v, err)
		}
		if r.TimeAvgUtility <= 0 {
			t.Errorf("device %d utility = %v", i, r.TimeAvgUtility)
		}
	}
}

func TestBaselinesComparison(t *testing.T) {
	s := sharedScenario(t)
	rows := runAxis(t, s, s.Params.Slots, mustAxisPolicy(t, "proposed", "max", "min", "random", "threshold", "oracle"))
	byName := map[string]SweepRow{}
	for _, r := range rows {
		byName[r.Detail.Sim.PolicyName] = r
	}
	prop := byName["drift-plus-penalty"]
	// Proposed must dominate min-depth and the static oracle in quality
	// while staying non-diverging.
	if prop.Verdict == queueing.VerdictDiverging.String() {
		t.Error("proposed diverged")
	}
	if prop.Utility <= byName["only min-Depth"].Utility {
		t.Error("proposed must beat min-depth quality")
	}
	oracleName := "fixed-depth(9)"
	oracle, ok := byName[oracleName]
	if !ok {
		t.Fatalf("oracle row missing: %v", byName)
	}
	if prop.Utility < oracle.Utility-1e-9 {
		t.Errorf("proposed %v below static oracle %v", prop.Utility, oracle.Utility)
	}
	if byName["only max-Depth"].Verdict != queueing.VerdictDiverging.String() {
		t.Error("max-depth must diverge in this scenario")
	}
}

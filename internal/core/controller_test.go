package core

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"qarv/internal/delay"
	"qarv/internal/quality"
)

// testProfile mimics a voxelized body's occupancy: surface-like growth then
// saturation. Indexed by depth 0..10.
var testProfile = []int{1, 8, 60, 420, 2500, 9000, 26000, 60000, 110000, 160000, 200000}

func testConfig(v float64) Config {
	u, err := quality.NewLogPointUtility(testProfile)
	if err != nil {
		panic(err)
	}
	cost, err := delay.NewPointCostModel(testProfile, 1.0, 0, 0)
	if err != nil {
		panic(err)
	}
	return Config{V: v, Depths: []int{5, 6, 7, 8, 9, 10}, Utility: u, Cost: cost}
}

func mustNew(t *testing.T, cfg Config) *Controller {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	base := testConfig(100)

	cfg := base
	cfg.Depths = nil
	if _, err := New(cfg); !errors.Is(err, ErrNoDepths) {
		t.Errorf("no depths: %v", err)
	}

	cfg = base
	cfg.V = -1
	if _, err := New(cfg); !errors.Is(err, ErrNegativeV) {
		t.Errorf("negative V: %v", err)
	}

	cfg = base
	cfg.Utility = nil
	if _, err := New(cfg); !errors.Is(err, ErrNilUtility) {
		t.Errorf("nil utility: %v", err)
	}

	cfg = base
	cfg.Cost = nil
	if _, err := New(cfg); !errors.Is(err, ErrNilCost) {
		t.Errorf("nil cost: %v", err)
	}

	// Flat utility across the candidate set must be rejected.
	cfg = base
	cfg.Utility = &quality.LinearDepthUtility{MaxDepth: 5}
	if _, err := New(cfg); !errors.Is(err, ErrBadUtility) {
		t.Errorf("flat utility: %v", err)
	}

	// Flat cost (profile saturated identically) must be rejected: use a
	// profile equal at depths 9 and 10.
	flat := make([]int, len(testProfile))
	copy(flat, testProfile)
	flat[10] = flat[9]
	flatCost, err := delay.NewPointCostModel(flat, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg = base
	cfg.Cost = flatCost
	if _, err := New(cfg); !errors.Is(err, ErrBadCost) {
		t.Errorf("flat cost: %v", err)
	}
}

func TestDepthsSortedDeduped(t *testing.T) {
	cfg := testConfig(10)
	cfg.Depths = []int{9, 5, 7, 5, 9, 6, 8, 10}
	c := mustNew(t, cfg)
	want := []int{5, 6, 7, 8, 9, 10}
	got := c.depths
	if len(got) != len(want) {
		t.Fatalf("depths = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("depths = %v, want %v", got, want)
		}
	}
}

func TestDecideZeroBacklogPicksMaxQuality(t *testing.T) {
	c := mustNew(t, testConfig(50))
	if d := c.Decide(0, 0); d != 10 {
		t.Errorf("Q=0 decision = %d, want 10 (pure quality)", d)
	}
}

func TestDecideHugeBacklogPicksMinCost(t *testing.T) {
	c := mustNew(t, testConfig(50))
	if d := c.Decide(0, 1e12); d != 5 {
		t.Errorf("huge-Q decision = %d, want 5 (pure stability)", d)
	}
}

func TestDecideMonotoneInBacklog(t *testing.T) {
	// The chosen depth must be non-increasing in Q: more backlog never
	// justifies more work.
	c := mustNew(t, testConfig(1000))
	prev := math.MaxInt32
	for q := 0.0; q < 1e7; q = q*1.5 + 1 {
		d := c.Decide(0, q)
		if d > prev {
			t.Fatalf("depth increased with backlog: %d -> %d at Q=%v", prev, d, q)
		}
		prev = d
	}
}

func TestDecideMonotoneInV(t *testing.T) {
	// At fixed Q, a larger V (quality priority) never lowers the depth.
	q := 5000.0
	prev := -1
	for _, v := range []float64{0, 1, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e7} {
		c := mustNew(t, testConfig(v))
		d := c.Decide(0, q)
		if d < prev {
			t.Fatalf("depth decreased with V: %d -> %d at V=%v", prev, d, v)
		}
		prev = d
	}
}

func TestDecideScaleInvariance(t *testing.T) {
	// Index is linear in (V, Q): scaling both leaves decisions unchanged.
	f := func(qRaw, scaleRaw float64) bool {
		q := math.Abs(math.Mod(qRaw, 1e6))
		scale := math.Abs(math.Mod(scaleRaw, 100)) + 0.1
		a := mustNewQuiet(testConfig(500))
		b := mustNewQuiet(testConfig(500 * scale))
		return a.Decide(0, q) == b.Decide(0, q*scale)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func mustNewQuiet(cfg Config) *Controller {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

func TestDecideAlwaysInCandidateSet(t *testing.T) {
	c := mustNew(t, testConfig(123))
	valid := map[int]bool{}
	for _, d := range c.depths {
		valid[d] = true
	}
	f := func(q float64) bool {
		return valid[c.Decide(0, math.Abs(math.Mod(q, 1e9)))]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDecideDetailedConsistent(t *testing.T) {
	c := mustNew(t, testConfig(777))
	for _, q := range []float64{0, 1, 100, 1e4, 1e6, 1e9} {
		dec := c.DecideDetailed(q)
		if dec.Depth != c.Decide(0, q) {
			t.Fatalf("Q=%v: detailed %d != plain %d", q, dec.Depth, c.Decide(0, q))
		}
		if len(dec.Candidates) != len(c.depths) {
			t.Fatalf("candidate rows = %d", len(dec.Candidates))
		}
		// The reported index must be the max over candidates.
		for _, cand := range dec.Candidates {
			if cand.Index > dec.Index+1e-9 {
				t.Fatalf("Q=%v: candidate %d index %v beats chosen %v",
					q, cand.Depth, cand.Index, dec.Index)
			}
		}
		if dec.Backlog != q {
			t.Errorf("backlog echoed wrong: %v", dec.Backlog)
		}
	}
}

func TestSwitchBacklogIsTheKnee(t *testing.T) {
	c := mustNew(t, testConfig(2e5))
	qStar := c.SwitchBacklog()
	if math.IsInf(qStar, 1) || qStar <= 0 {
		t.Fatalf("switch backlog = %v", qStar)
	}
	if d := c.Decide(0, qStar*0.99); d != 10 {
		t.Errorf("just below knee: depth %d, want 10", d)
	}
	if d := c.Decide(0, qStar*1.01); d == 10 {
		t.Error("just above knee: still at max depth")
	}
}

func TestSwitchBacklogSingleDepth(t *testing.T) {
	cfg := testConfig(10)
	cfg.Depths = []int{7}
	c := mustNew(t, cfg)
	if !math.IsInf(c.SwitchBacklog(), 1) {
		t.Error("single-candidate controller can never switch")
	}
}

func TestVerbatimAlgorithm1IsInverted(t *testing.T) {
	// The printed pseudo-code minimizes the index: at Q=0 it picks the
	// *lowest* quality, and under load it picks the *most expensive*
	// depth — exactly backwards. This regression test documents the
	// erratum (see the package comment).
	c := mustNew(t, testConfig(50))
	if d := c.DecideAlgorithm1Verbatim(0); d != 5 {
		t.Errorf("verbatim at Q=0 picked %d; the bug should pick 5", d)
	}
	if d := c.DecideAlgorithm1Verbatim(1e9); d != 10 {
		t.Errorf("verbatim under load picked %d; the bug should pick 10", d)
	}
	// And therefore it destabilizes: simulate the Fig. 2 scenario with
	// service below a(10); the verbatim variant stays at depth 10 and
	// diverges while the corrected controller stabilizes.
	service := 0.8 * float64(testProfile[10])
	var qGood, qBad float64
	for t := 0; t < 500; t++ {
		dGood := c.Decide(t, qGood)
		dBad := c.DecideAlgorithm1Verbatim(qBad)
		qGood = math.Max(qGood+float64(testProfile[dGood])-service, 0)
		qBad = math.Max(qBad+float64(testProfile[dBad])-service, 0)
	}
	if qBad < qGood*10 {
		t.Errorf("verbatim backlog %v not clearly diverging vs corrected %v", qBad, qGood)
	}
}

func TestCalibrateVPlacesKnee(t *testing.T) {
	cfg := testConfig(0) // V filled by calibration
	service := 0.8 * float64(testProfile[10])
	const knee = 400.0
	v, err := CalibrateV(knee, service, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if v <= 0 {
		t.Fatalf("calibrated V = %v", v)
	}
	cfg.V = v
	c := mustNew(t, cfg)
	// Simulate the deterministic fluid scenario; record when the depth
	// first leaves 10.
	var q float64
	dropSlot := -1
	for slot := 0; slot < 800; slot++ {
		d := c.Decide(slot, q)
		if d != 10 && dropSlot < 0 {
			dropSlot = slot
			break
		}
		q = math.Max(q+float64(testProfile[d])-service, 0)
	}
	if dropSlot < 0 {
		t.Fatal("controller never dropped depth")
	}
	if math.Abs(float64(dropSlot)-knee) > knee*0.05 {
		t.Errorf("knee at slot %d, want ~%v", dropSlot, knee)
	}
}

func TestCalibrateVErrors(t *testing.T) {
	cfg := testConfig(0)
	if _, err := CalibrateV(0, 100, cfg); !errors.Is(err, ErrBadKnee) {
		t.Errorf("zero knee: %v", err)
	}
	// Service above a(max): nothing to stabilize against.
	if _, err := CalibrateV(400, 1e9, cfg); !errors.Is(err, ErrNotUnstable) {
		t.Errorf("stable system: %v", err)
	}
	one := cfg
	one.Depths = []int{10}
	if _, err := CalibrateV(400, 0.8*float64(testProfile[10]), one); !errors.Is(err, ErrNoTradeoff) {
		t.Errorf("single depth: %v", err)
	}
	bad := cfg
	bad.Depths = nil
	if _, err := CalibrateV(400, 100, bad); err == nil {
		t.Error("invalid config must propagate")
	}
}

func TestTheoreticalBounds(t *testing.T) {
	c := mustNew(t, testConfig(1000))
	bMax := 0.8 * float64(testProfile[10])
	b, err := c.TheoreticalBounds(bMax)
	if err != nil {
		t.Fatal(err)
	}
	aMax := float64(testProfile[10])
	wantB := 0.5 * (aMax*aMax + bMax*bMax)
	if math.Abs(b.B-wantB) > 1e-6 {
		t.Errorf("B = %v, want %v", b.B, wantB)
	}
	if math.Abs(b.UtilityGap-wantB/1000) > 1e-9 {
		t.Errorf("utility gap = %v", b.UtilityGap)
	}
	if b.SlackEpsilon <= 0 || b.BacklogBound <= 0 {
		t.Errorf("bounds = %+v", b)
	}
	// Utility gap shrinks as V grows (O(1/V)); backlog bound grows (O(V)).
	c2 := mustNew(t, testConfig(10000))
	b2, err := c2.TheoreticalBounds(bMax)
	if err != nil {
		t.Fatal(err)
	}
	if b2.UtilityGap >= b.UtilityGap {
		t.Error("utility gap must shrink with V")
	}
	if b2.BacklogBound <= b.BacklogBound {
		t.Error("backlog bound must grow with V")
	}
	// V=0: infinite utility gap.
	c0 := mustNew(t, testConfig(0))
	b0, err := c0.TheoreticalBounds(bMax)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(b0.UtilityGap, 1) {
		t.Errorf("V=0 gap = %v, want +Inf", b0.UtilityGap)
	}
	// No slack: service below the cheapest depth.
	if _, err := c.TheoreticalBounds(1); !errors.Is(err, ErrNoSlack) {
		t.Errorf("no slack: %v", err)
	}
}

func TestDecisionComplexityIsLinear(t *testing.T) {
	// O(N) claim: the decision loop touches each candidate exactly once.
	// Verify the controller handles a large candidate set and returns a
	// member of it (the bench in bench_test.go measures the scaling).
	profile := make([]int, 22)
	for i := range profile {
		profile[i] = 1 << uint(i)
	}
	u, err := quality.NewLogPointUtility(profile)
	if err != nil {
		t.Fatal(err)
	}
	cost, err := delay.NewPointCostModel(profile, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	depths := make([]int, 21)
	for i := range depths {
		depths[i] = i + 1
	}
	c, err := New(Config{V: 100, Depths: depths, Utility: u, Cost: cost})
	if err != nil {
		t.Fatal(err)
	}
	d := c.Decide(0, 42)
	if d < 1 || d > 21 {
		t.Errorf("decision %d outside set", d)
	}
}

package qarv

import (
	"context"
	"encoding/json"
	"math"
	"sync"
	"testing"
)

// stochasticSessionOpts builds a session where every seedable component
// is stochastic and none carries its own RNG — the configuration
// WithSeed exists for.
func stochasticSessionOpts(t *testing.T, seed uint64) []Option {
	t.Helper()
	cost, util := cheapModels(t)
	p, err := NewRandomPolicy([]int{2, 3, 4, 5}, 1) // RNG replaced by WithSeed
	if err != nil {
		t.Fatal(err)
	}
	return []Option{
		WithPolicy(p),
		WithArrivals(&PoissonArrivals{Mean: 1.3}),
		WithCost(cost),
		WithUtility(util),
		WithService(&NoisyService{Mean: 4000, Std: 600}),
		WithSlots(400),
		WithSeed(seed),
	}
}

func runSeeded(t *testing.T, seed uint64) []byte {
	t.Helper()
	s, err := NewSession(stochasticSessionOpts(t, seed)...)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestWithSeedDeterminism pins the WithSeed contract: two sessions built
// with the same options and seed produce byte-identical reports, and a
// different seed actually changes the run.
func TestWithSeedDeterminism(t *testing.T) {
	a, b := runSeeded(t, 42), runSeeded(t, 42)
	if string(a) != string(b) {
		t.Fatal("same seed produced different reports")
	}
	if c := runSeeded(t, 43); string(c) == string(a) {
		t.Fatal("different seed produced an identical report")
	}
}

// TestWithSeedMultiDevice: seeding reaches every device's stochastic
// components in a multi-device session and stays byte-deterministic.
func TestWithSeedMultiDevice(t *testing.T) {
	run := func(seed uint64) []byte {
		cost, util := cheapModels(t)
		devs := make([]Device, 3)
		for i := range devs {
			p, err := NewRandomPolicy([]int{2, 3, 4, 5}, 1)
			if err != nil {
				t.Fatal(err)
			}
			devs[i] = Device{
				Policy:   p,
				Cost:     cost,
				Utility:  util,
				Arrivals: &PoissonArrivals{Mean: 1.1},
			}
		}
		s, err := NewSession(
			WithDevices(devs...),
			WithService(&NoisyService{Mean: 12_000, Std: 1500}),
			WithSlots(300),
			WithSeed(seed),
		)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	if a, b := run(7), run(7); string(a) != string(b) {
		t.Fatal("same seed produced different multi-device reports")
	}
	if a, c := run(7), run(8); string(a) == string(c) {
		t.Fatal("different seed produced an identical multi-device report")
	}
}

// TestWithSeedDistinctStreams: the per-component child streams must be
// independent — a session whose arrivals and service share one seed must
// not hand them correlated draws (regression guard against reseeding
// every component with the same RNG instance).
func TestWithSeedDistinctStreams(t *testing.T) {
	arr := &PoissonArrivals{Mean: 5}
	svc := &NoisyService{Mean: 100, Std: 30}
	if _, err := NewSession(
		WithPolicy(&FixedDepth{Depth: 3}),
		WithArrivals(arr),
		WithCost(mustCost(t)), WithUtility(mustUtil(t)),
		WithService(svc),
		WithSlots(10),
		WithSeed(1),
	); err != nil {
		t.Fatal(err)
	}
	if arr.RNG == nil || svc.RNG == nil {
		t.Fatal("WithSeed did not reach the components")
	}
	if arr.RNG == svc.RNG {
		t.Fatal("components share one RNG instance")
	}
	// Distinct streams: the first draws must differ.
	if arr.RNG.Uint64() == svc.RNG.Uint64() {
		t.Fatal("component streams are correlated")
	}
}

func mustCost(t *testing.T) CostModel {
	t.Helper()
	cost, _ := cheapModels(t)
	return cost
}

func mustUtil(t *testing.T) UtilityModel {
	t.Helper()
	_, util := cheapModels(t)
	return util
}

// TestWithSeedMarkovService: WithSeed reaches a capacity factor through
// ModulatedService like any other stochastic component. For every -net
// class qarvsim and qarvfleet resolve (the factor presets below) and
// every sweep network shape (built unit-rate with no RNG, so the shape
// is a factor only the session seed can drive), a session serving
// ModulatedService{ConstantService, factor} under WithSeed(s) replays
// byte-identically, and for a stochastic factor a different s changes
// the report.
func TestWithSeedMarkovService(t *testing.T) {
	diurnal, err := LoadFactorTrace("")
	if err != nil {
		t.Fatal(err)
	}
	shape := func(n SweepNetwork) func() ServiceProcess {
		return func() ServiceProcess { return n.New(1, nil) }
	}
	factors := []struct {
		name       string
		stochastic bool
		factor     func() ServiceProcess
	}{
		{"net markov", true, func() ServiceProcess { return DefaultMarkovFactor(nil) }},
		{"net trace", false, func() ServiceProcess { return diurnal }},
		{"net handoff", true, func() ServiceProcess { return DefaultHandoffFactor(nil) }},
		{"sweep static", false, shape(NetworkStatic())},
		{"sweep markov", true, shape(NetworkMarkov(0.6))},
		{"sweep markov dwell", true, shape(NetworkMarkovDwell(0.6, 20))},
		{"sweep handoff", true, shape(NetworkHandoff())},
		{"sweep trace", false, shape(NetworkTraceShape(diurnal))},
	}
	for _, tc := range factors {
		t.Run(tc.name, func(t *testing.T) {
			run := func(seed uint64) []byte {
				cost, util := cheapModels(t)
				p, err := NewThresholdPolicy([]int{2, 3, 4, 5}, 3000, 9000)
				if err != nil {
					t.Fatal(err)
				}
				s, err := NewSession(
					WithPolicy(p),
					WithArrivals(&DeterministicArrivals{PerSlot: 1}),
					WithCost(cost),
					WithUtility(util),
					WithService(&ModulatedService{Inner: &ConstantService{Rate: 4000}, Factor: tc.factor()}),
					WithSlots(1000),
					WithSeed(seed),
				)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := s.Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				raw, err := json.Marshal(rep)
				if err != nil {
					t.Fatal(err)
				}
				return raw
			}
			a, b := run(21), run(21)
			if string(a) != string(b) {
				t.Fatal("same seed produced different reports")
			}
			if c := run(22); tc.stochastic && string(c) == string(a) {
				t.Fatal("different seed produced an identical report: the factor escaped WithSeed")
			}
		})
	}
}

// The calibrated scenario is expensive to build (synthetic frame +
// octree), so the sweep tests share one instance.
var (
	sweepScnOnce sync.Once
	sweepScn     *Scenario
	sweepScnErr  error
)

func sweepScenario(t *testing.T) *Scenario {
	t.Helper()
	sweepScnOnce.Do(func() {
		sweepScn, sweepScnErr = NewScenario(ScenarioParams{Samples: 40_000, Slots: 400, KneeSlot: 200, Seed: 2})
	})
	if sweepScnErr != nil {
		t.Fatal(sweepScnErr)
	}
	return sweepScn
}

// threeAxisSweep builds the acceptance grid: a 3-axis cross product
// where every cell is stochastic, so per-cell seed derivation is doing
// real work.
func threeAxisSweep(t *testing.T, workers int, seed uint64) *Sweep {
	t.Helper()
	sw, err := NewSweep(sweepScenario(t),
		AxisV(0.5, 1),
		AxisArrivalRate(0.9, 1.1),
		AxisNetwork(NetworkStatic(), NetworkMarkov(0.5)),
	)
	if err != nil {
		t.Fatal(err)
	}
	sw.Workers = workers
	sw.Slots = 120
	sw.Seed = seed
	return sw
}

func sweepJSON(t *testing.T, sw *Sweep) string {
	t.Helper()
	rep, err := sw.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestSweepDeterminismAcrossWorkers pins the sweep engine's seed
// contract through the facade: a 3-axis stochastic cross product is
// byte-identical at workers 1, 4, and GOMAXPROCS, and a different sweep
// seed actually changes the report.
func TestSweepDeterminismAcrossWorkers(t *testing.T) {
	base := sweepJSON(t, threeAxisSweep(t, 1, 42))
	if got := sweepJSON(t, threeAxisSweep(t, 4, 42)); got != base {
		t.Fatal("workers=4 diverged from workers=1")
	}
	if got := sweepJSON(t, threeAxisSweep(t, 0, 42)); got != base {
		t.Fatal("workers=GOMAXPROCS diverged from workers=1")
	}
	if got := sweepJSON(t, threeAxisSweep(t, 4, 43)); got == base {
		t.Fatal("different sweep seed produced an identical report")
	}
}

// TestSweepDeterminismFleetBackend: the same contract when every cell
// is a sharded fleet.
func TestSweepDeterminismFleetBackend(t *testing.T) {
	run := func(workers int) string {
		sw := threeAxisSweep(t, workers, 42)
		sw.Backend = BackendFleet(8)
		sw.Slots = 60
		return sweepJSON(t, sw)
	}
	base := run(1)
	if got := run(4); got != base {
		t.Fatal("fleet-backend sweep diverged across worker counts")
	}
}

// TestSweepBackendsCoincideViaFacade: a deterministic cell reports the
// same means whether run in-process or as a single-session fleet.
func TestSweepBackendsCoincideViaFacade(t *testing.T) {
	run := func(b SweepBackend) SweepRow {
		sw, err := NewSweep(sweepScenario(t), AxisV(1))
		if err != nil {
			t.Fatal(err)
		}
		sw.Backend = b
		sw.Slots = 200
		rep, err := sw.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rep.Rows[0]
	}
	pool, fl := run(BackendPool()), run(BackendFleet(1))
	if math.Abs(pool.Utility-fl.Utility) > 1e-9 || math.Abs(pool.Backlog-fl.Backlog) > 1e-9 {
		t.Errorf("backends diverge: pool (%v, %v) vs fleet (%v, %v)",
			pool.Utility, pool.Backlog, fl.Utility, fl.Backlog)
	}
}

// contentSweep builds the content acceptance grid: two measured assets
// crossed with V factors, every cell calibrated over its asset's
// measured byte/PSNR ladders. Profiles resolve through the content
// cache, so the asset pipeline runs once per asset per process.
func contentSweep(t *testing.T, workers int, seed uint64) *Sweep {
	t.Helper()
	profs := make([]*ContentProfile, 2)
	for i, asset := range []string{"loot", "soldier"} {
		p, err := LoadContent(ContentConfig{Asset: asset, Samples: 6_000, CaptureDepth: 7, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		profs[i] = p
	}
	base, err := NewContentScenario(ScenarioParams{KneeSlot: 100, Slots: 200}, profs[0])
	if err != nil {
		t.Fatal(err)
	}
	sw, err := NewSweep(base, AxisContent(profs...), AxisV(0.5, 1))
	if err != nil {
		t.Fatal(err)
	}
	sw.Workers = workers
	sw.Slots = 120
	sw.Seed = seed
	return sw
}

// TestContentSweepDeterminism pins the acceptance contract for
// content-backed sweeps: an AxisContent (2 assets) × AxisV grid is
// byte-identical at workers 1 and 4, on both backends — same seed ⇒
// identical measured profile ⇒ identical SweepReport at any worker or
// shard count.
func TestContentSweepDeterminism(t *testing.T) {
	base := sweepJSON(t, contentSweep(t, 1, 42))
	if got := sweepJSON(t, contentSweep(t, 4, 42)); got != base {
		t.Fatal("content sweep diverged between workers 1 and 4")
	}
	fleetRun := func(workers int) string {
		sw := contentSweep(t, workers, 42)
		sw.Backend = BackendFleet(8)
		sw.Slots = 60
		return sweepJSON(t, sw)
	}
	if fleetRun(1) != fleetRun(4) {
		t.Fatal("content fleet-backend sweep diverged across worker counts")
	}
}

// TestContentSweepBackendsCoincide: a deterministic content cell reports
// the same means in-process and as a single-session fleet — the measured
// ladders resolve identically down both backend paths.
func TestContentSweepBackendsCoincide(t *testing.T) {
	run := func(b SweepBackend) SweepRow {
		sw := contentSweep(t, 1, 42)
		sw.Backend = b
		rep, err := sw.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rep.Rows[0]
	}
	pool, fl := run(BackendPool()), run(BackendFleet(1))
	if math.Abs(pool.Utility-fl.Utility) > 1e-9 || math.Abs(pool.Backlog-fl.Backlog) > 1e-9 {
		t.Errorf("content backends diverge: pool (%v, %v) vs fleet (%v, %v)",
			pool.Utility, pool.Backlog, fl.Utility, fl.Backlog)
	}
}

// Regression (review finding): Run twice on the same markov-service
// session must not freeze the chain — a t regression resets the
// process state while the RNG stream continues, so the second run is
// still Markov-modulated (both capacity levels appear).
func TestMarkovServiceSurvivesSessionReRun(t *testing.T) {
	cost, util := cheapModels(t)
	p, err := NewThresholdPolicy([]int{2, 3, 4, 5}, 3000, 9000)
	if err != nil {
		t.Fatal(err)
	}
	mb := &MarkovBandwidth{GoodRate: 5000, BadRate: 1500, PGoodBad: 0.2, PBadGood: 0.2}
	s, err := NewSession(
		WithPolicy(p),
		WithArrivals(&DeterministicArrivals{PerSlot: 1}),
		WithCost(cost), WithUtility(util),
		WithService(mb),
		WithSlots(300),
		WithSeed(33),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// After the second run the chain must have visited both states.
	levels := map[float64]bool{}
	for slot := 0; slot < 300; slot++ {
		levels[mb.Service(slot)] = true // third restart; still mixing
	}
	if len(levels) != 2 {
		t.Fatalf("markov service froze after re-Run: levels %v", levels)
	}
}

package experiments

import (
	"context"
	"testing"

	"qarv/internal/delay"
	"qarv/internal/geom"
	"qarv/internal/queueing"
)

// TestFleetVSweepTradeoff: the paper's O(1/V) quality gap vs O(V)
// backlog tradeoff must survive the jump from one trajectory to a
// stochastic population — fleet mean utility non-decreasing in V, tail
// (P95) backlog growing with V, and the population staying
// overwhelmingly non-diverging at every point (some candidate depth is
// always stabilizable).
func TestFleetVSweepTradeoff(t *testing.T) {
	s := sharedScenario(t)
	factors := []float64{0.2, 1, 5}
	sw, err := NewSweep(s, AxisV(factors...))
	if err != nil {
		t.Fatal(err)
	}
	sw.Backend = BackendFleet(64)
	// The knee (time-to-steady-state) scales with V, so the horizon
	// covers the largest factor's knee with settling room — otherwise
	// still-ramping trajectories get misclassified as diverging.
	sw.Slots = 2 * s.Params.Slots
	if scaled := int(4 * factors[2] * s.Params.KneeSlot); scaled > sw.Slots {
		sw.Slots = scaled
	}
	// A stochastic population (Poisson arrivals, ±5% noisy service),
	// pinned to one seed so every V point replays the same population.
	sw.Configure(func(c *SweepCell) error {
		c.Seed = 1
		c.NewArrivals = func(_ *SweepCell, rng *geom.RNG) queueing.ArrivalProcess {
			return &queueing.PoissonArrivals{Mean: 1, RNG: rng}
		}
		c.NewService = func(_ *SweepCell, _ float64, rng *geom.RNG) delay.ServiceProcess {
			return &delay.NoisyService{Mean: s.ServiceRate, Std: 0.05 * s.ServiceRate, RNG: rng}
		}
		return nil
	})
	rep, err := sw.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rows := rep.Rows
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Utility < rows[i-1].Utility-1e-9 {
			t.Errorf("mean utility decreased with V: %v (V=%gx) -> %v (V=%gx)",
				rows[i-1].Utility, factors[i-1], rows[i].Utility, factors[i])
		}
	}
	if rows[2].P95Backlog <= rows[0].P95Backlog {
		t.Errorf("P95 backlog did not grow with V: %v (V=0.2x) vs %v (V=5x)",
			rows[0].P95Backlog, rows[2].P95Backlog)
	}
	for i, r := range rows {
		if r.Sessions != 64 {
			t.Errorf("V=%gx: %d sessions, want 64", factors[i], r.Sessions)
		}
		// The trend classifier is noisy on heavily stochastic
		// trajectories (excursions comparable to the mean at high V), so
		// only a majority claim is stable across seeds.
		if r.Verdicts.Diverging > r.Sessions/3 {
			t.Errorf("V=%gx: %d of %d sessions diverging", factors[i], r.Verdicts.Diverging, r.Sessions)
		}
	}
}

// TestFleetProfileOverride: the scenario-derived profile is a plain
// struct whose fields compose (the documented customization path).
func TestFleetProfileOverride(t *testing.T) {
	s := sharedScenario(t)
	p := s.FleetProfile("custom", 2, 1)
	if p.Name != "custom" || p.Weight != 2 {
		t.Fatalf("profile echo wrong: %+v", p)
	}
	pol, err := p.NewPolicy(nil)
	if err != nil {
		t.Fatal(err)
	}
	if pol.Name() == "" {
		t.Error("profile policy unnamed")
	}
	if p.NewService(nil).Service(0) != s.ServiceRate {
		t.Error("profile service rate != calibrated rate")
	}
	if p.NewArrivals != nil {
		t.Error("default profile should leave arrivals to the engine default")
	}
}

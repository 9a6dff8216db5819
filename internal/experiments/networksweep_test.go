package experiments

import (
	"context"
	"errors"
	"testing"

	"qarv/internal/netem"
)

// TestNetworkSweepMonotoneDegradation pins the acceptance property of
// the dynamic-network subsystem: under a mean-preserving capacity
// spread, rising bandwidth volatility monotonically degrades the
// fleet — time-average utility falls and the tail (P95) backlog grows.
// The runs are fully deterministic per seed, so this is a stable pin,
// not a statistical flake.
func TestNetworkSweepMonotoneDegradation(t *testing.T) {
	s := sharedScenario(t)
	vols := []float64{0, 0.45, 0.9}
	nets := make([]SweepNetwork, len(vols))
	for i, v := range vols {
		nets[i] = NetworkMarkov(v)
	}
	sw, err := NewSweep(s, AxisNetwork(nets...))
	if err != nil {
		t.Fatal(err)
	}
	sw.Backend = BackendFleet(48)
	sw.Slots = 2 * s.Params.Slots
	// One pinned seed: every volatility point replays the same population.
	sw.Configure(func(c *SweepCell) error { c.Seed = 1; return nil })
	rep, err := sw.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rows := rep.Rows
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Utility > rows[i-1].Utility+1e-9 {
			t.Errorf("mean utility rose with volatility: %v (v=%g) -> %v (v=%g)",
				rows[i-1].Utility, vols[i-1], rows[i].Utility, vols[i])
		}
		if rows[i].P95Backlog < rows[i-1].P95Backlog-1e-9 {
			t.Errorf("P95 backlog fell with volatility: %v (v=%g) -> %v (v=%g)",
				rows[i-1].P95Backlog, vols[i-1], rows[i].P95Backlog, vols[i])
		}
	}
	// The spread must actually cost something, not just not-improve.
	if rows[2].Utility >= rows[0].Utility {
		t.Errorf("volatility 0.9 did not degrade utility: %v vs %v at 0",
			rows[2].Utility, rows[0].Utility)
	}
	if rows[2].P95Backlog <= rows[0].P95Backlog {
		t.Errorf("volatility 0.9 did not grow tail backlog: %v vs %v at 0",
			rows[2].P95Backlog, rows[0].P95Backlog)
	}
	// The v=0 point is the static-network baseline: a calibrated,
	// stabilizable fleet with no diverging sessions.
	if rows[0].Verdicts.Diverging != 0 {
		t.Errorf("static baseline diverging sessions: %d", rows[0].Verdicts.Diverging)
	}
	for i, r := range rows {
		if r.Sessions != 48 {
			t.Errorf("v=%g: %d sessions, want 48", vols[i], r.Sessions)
		}
		mb, ok := nets[i].Factor.(*netem.MarkovBandwidth)
		if !ok {
			t.Fatalf("v=%g: capacity factor is not a Markov chain", vols[i])
		}
		if mb.GoodRate < mb.BadRate {
			t.Errorf("v=%g: good %v < bad %v", vols[i], mb.GoodRate, mb.BadRate)
		}
	}
}

func TestNetworkSweepRejectsBadVolatility(t *testing.T) {
	s := sharedScenario(t)
	for _, nets := range [][]SweepNetwork{
		{NetworkMarkov(0.5), NetworkMarkov(1.0)},
		{NetworkMarkov(-0.1)},
	} {
		sw, err := NewSweep(s, AxisNetwork(nets...))
		if err != nil {
			t.Fatal(err)
		}
		sw.Backend = BackendFleet(4)
		sw.Slots = 50
		if _, err := sw.Run(context.Background()); !errors.Is(err, ErrBadVolatility) {
			t.Errorf("volatility %s: %v", nets[len(nets)-1].Name, err)
		}
	}
}

package learn

import (
	"math"
	"testing"

	"qarv/internal/alloc"
	"qarv/internal/geom"
)

// probePolicy records every backlog observation it is handed.
type probePolicy struct{ seen []float64 }

func (p *probePolicy) Decide(_ int, q float64) int {
	p.seen = append(p.seen, q)
	return len(p.seen)
}

func (p *probePolicy) Name() string { return "probe" }

func TestByNameRegistration(t *testing.T) {
	a, err := alloc.ByName("bandit:4")
	if err != nil {
		t.Fatalf("bandit:4: %v", err)
	}
	b, ok := a.(*Bandit)
	if !ok {
		t.Fatalf("bandit:4 built %T, want *Bandit", a)
	}
	if b.arms != 4 {
		t.Fatalf("bandit:4 arms = %d, want 4", b.arms)
	}
	if got := b.Name(); got != "bandit:4" {
		t.Fatalf("Name() = %q, want bandit:4", got)
	}

	a, err = alloc.ByName("gradient:0.5")
	if err != nil {
		t.Fatalf("gradient:0.5: %v", err)
	}
	g, ok := a.(*Gradient)
	if !ok {
		t.Fatalf("gradient:0.5 built %T, want *Gradient", a)
	}
	if g.step != 0.5 {
		t.Fatalf("gradient:0.5 step = %v, want 0.5", g.step)
	}

	if a, err = alloc.ByName("bandit"); err != nil {
		t.Fatalf("bare bandit: %v", err)
	} else if a.(*Bandit).arms != DefaultArms {
		t.Fatalf("bare bandit arms = %d, want %d", a.(*Bandit).arms, DefaultArms)
	}

	for _, bad := range []string{"bandit:0", "bandit:x", "gradient:-1", "gradient:zz"} {
		if _, err := alloc.ByName(bad); err == nil {
			t.Errorf("ByName(%q) succeeded, want error", bad)
		}
	}

	_, err = alloc.ByName("nosuch")
	if err == nil {
		t.Fatal("ByName(nosuch) succeeded")
	}
	for _, want := range []string{"bandit[:ARMS]", "gradient[:STEP]", "equal"} {
		if !contains(err.Error(), want) {
			t.Errorf("unknown-name error %q does not enumerate %q", err, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestBanditDeterminismAndConservation(t *testing.T) {
	run := func() [][]float64 {
		b := NewBandit(6)
		b.Reseed(geom.NewRNG(42))
		backlogs := []float64{3, 0, 7, 1}
		out := make([][]float64, 0, 50)
		for slot := 0; slot < 50; slot++ {
			shares := make([]float64, 4)
			b.Allocate(slot, 10, backlogs, shares)
			var sum float64
			for i, s := range shares {
				if s < 0 {
					t.Fatalf("slot %d device %d: negative share %v", slot, i, s)
				}
				sum += s
			}
			if math.Abs(sum-10) > 1e-9 {
				t.Fatalf("slot %d: shares sum %v, want 10", slot, sum)
			}
			b.Learn(slot, []float64{0.5, 0.6, 0.2, 0.9}, backlogs)
			out = append(out, shares)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("slot %d device %d: %v != %v (same seed diverged)", i, j, a[i][j], b[i][j])
			}
		}
	}
}

func TestBanditLearnsBestArm(t *testing.T) {
	// Reward the top-tilt arm only: its EXP3 weight must end up
	// dominating every other arm's.
	b := NewBandit(4)
	b.Reseed(geom.NewRNG(3))
	backlogs := []float64{5, 1}
	shares := make([]float64, 2)
	for slot := 0; slot < 3000; slot++ {
		b.Allocate(slot, 4, backlogs, shares)
		reward := 0.0
		if b.lastArm == b.arms-1 {
			reward = 1.0
		}
		// Feed the reward through the utility channel (penalty 0.01 on
		// tiny backlogs barely moves it).
		b.Learn(slot, []float64{reward, reward}, []float64{0, 0})
	}
	best := b.weights[b.arms-1]
	for k := 0; k < b.arms-1; k++ {
		if b.weights[k] >= best {
			t.Fatalf("arm %d weight %v >= best arm weight %v after training", k, b.weights[k], best)
		}
	}
	if b.Regret() < 0 {
		t.Fatalf("negative regret %v", b.Regret())
	}
}

func TestGradientShiftsWeightToBackloggedDevice(t *testing.T) {
	g := NewGradient(0.2)
	shares := make([]float64, 4)
	backlogs := []float64{0, 0, 0, 0}
	g.Allocate(0, 8, backlogs, shares)
	for _, s := range shares {
		if math.Abs(s-2) > 1e-12 {
			t.Fatalf("initial split not uniform: %v", shares)
		}
	}
	// Device 2 persistently backlogged and utility-starved.
	for slot := 0; slot < 200; slot++ {
		g.Allocate(slot, 8, backlogs, shares)
		g.Learn(slot, []float64{0.9, 0.9, 0.1, 0.9}, []float64{0, 0, 50, 0})
	}
	g.Allocate(200, 8, backlogs, shares)
	var sum float64
	for i, s := range shares {
		if s < 0 {
			t.Fatalf("negative share %v for device %d", s, i)
		}
		sum += s
	}
	if math.Abs(sum-8) > 1e-9 {
		t.Fatalf("shares sum %v, want 8 (work conserving)", sum)
	}
	for i, s := range shares {
		if i != 2 && s >= shares[2] {
			t.Fatalf("device %d share %v >= backlogged device's %v", i, s, shares[2])
		}
	}
}

func TestPredictiveExtrapolates(t *testing.T) {
	probe := &probePolicy{}
	p := NewPredictive(probe, 10, 0.5)
	// Backlog rising by 2 per slot: after the EWMA warms up the
	// predicted backlog must exceed the observed one by ~horizon·2.
	for slot := 0; slot < 40; slot++ {
		p.Decide(slot, float64(2*slot))
	}
	last := probe.seen[len(probe.seen)-1]
	observed := float64(2 * 39)
	if last <= observed {
		t.Fatalf("predicted %v not ahead of observed %v on a rising ramp", last, observed)
	}
	if math.Abs(last-(observed+20)) > 2 {
		t.Fatalf("predicted %v, want ≈ %v (observed + horizon·velocity)", last, observed+20)
	}

	// Prediction clamps at zero on a collapsing queue.
	probe.seen = nil
	p2 := NewPredictive(probe, 10, 0.5)
	for slot := 0; slot < 20; slot++ {
		q := 100 - float64(10*slot)
		if q < 0 {
			q = 0
		}
		p2.Decide(slot, q)
	}
	for _, s := range probe.seen {
		if s < 0 {
			t.Fatalf("negative predicted backlog %v", s)
		}
	}
}

func TestLaggedDelaysObservations(t *testing.T) {
	probe := &probePolicy{}
	l := NewLagged(probe, 3)
	for slot := 0; slot < 10; slot++ {
		l.Decide(slot, float64(slot))
	}
	// First lag slots see the initial observation; afterwards slot t
	// sees the backlog from slot t-lag.
	want := []float64{0, 0, 0, 0, 1, 2, 3, 4, 5, 6}
	for i, w := range want {
		if probe.seen[i] != w {
			t.Fatalf("slot %d observed %v, want %v (full: %v)", i, probe.seen[i], w, probe.seen)
		}
	}
}

func TestNames(t *testing.T) {
	g := NewGradient(0.25)
	if g.Name() != "gradient:0.25" {
		t.Fatalf("gradient name %q", g.Name())
	}
	p := NewPredictive(&probePolicy{}, 8, 0)
	if p.Name() != "predictive:8(probe)" {
		t.Fatalf("predictive name %q", p.Name())
	}
	l := NewLagged(&probePolicy{}, 6)
	if l.Name() != "delayed:6(probe)" {
		t.Fatalf("lagged name %q", l.Name())
	}
}

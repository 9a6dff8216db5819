package delay

import (
	"errors"
	"math"
	"testing"

	"qarv/internal/geom"
)

var testProfile = []int{1, 8, 60, 420, 2500, 9000, 20000, 31000, 36000}

func TestPointCostModelMonotone(t *testing.T) {
	m, err := NewPointCostModel(testProfile, 1.0, 5, 100)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for d := 0; d < len(testProfile); d++ {
		c := m.FrameCost(d)
		if c <= prev {
			t.Errorf("cost not increasing at depth %d: %v <= %v", d, c, prev)
		}
		prev = c
	}
	// Clamping beyond range.
	if m.FrameCost(100) != m.FrameCost(len(testProfile)-1) {
		t.Error("overflow depth must clamp")
	}
	if m.FrameCost(-4) != m.FrameCost(0) {
		t.Error("negative depth must clamp")
	}
}

func TestPointCostModelComposition(t *testing.T) {
	m, err := NewPointCostModel([]int{10, 100}, 2, 7, 50)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.FrameCost(0); got != 2*10+0+50 {
		t.Errorf("cost(0) = %v", got)
	}
	if got := m.FrameCost(1); got != 2*100+7+50 {
		t.Errorf("cost(1) = %v", got)
	}
}

func TestPointCostModelValidation(t *testing.T) {
	if _, err := NewPointCostModel(nil, 1, 0, 0); err == nil {
		t.Error("empty profile must error")
	}
	if _, err := NewPointCostModel([]int{1, 2}, 0, 0, 0); err == nil {
		t.Error("zero perPoint must error")
	}
	if _, err := NewPointCostModel([]int{1, 2}, 1, -1, 0); err == nil {
		t.Error("negative perLevel must error")
	}
	if _, err := NewPointCostModel([]int{5, 3}, 1, 0, 0); err == nil {
		t.Error("non-monotone profile must error")
	}
	if _, err := NewPointCostModel([]int{-1, 3}, 1, 0, 0); err == nil {
		t.Error("negative occupancy must error")
	}
}

func TestConstantService(t *testing.T) {
	s := &ConstantService{Rate: 123}
	for _, slot := range []int{0, 5, 999} {
		if s.Service(slot) != 123 {
			t.Fatal("constant service must not vary")
		}
	}
}

func TestNoisyService(t *testing.T) {
	s := &NoisyService{Mean: 100, Std: 10, RNG: geom.NewRNG(5)}
	sum := 0.0
	const n = 5000
	for i := 0; i < n; i++ {
		v := s.Service(i)
		if v < 0 {
			t.Fatal("service went negative")
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-100) > 1 {
		t.Errorf("noisy mean = %v", mean)
	}
	// Without an RNG it degrades to the mean.
	det := &NoisyService{Mean: 55, Std: 10}
	if det.Service(0) != 55 {
		t.Error("nil RNG must return mean")
	}
}

// stepFactor is a stateless test factor: 0.25 during [10, 20), else 1.
type stepFactor struct{}

func (stepFactor) Service(t int) float64 {
	if t >= 10 && t < 20 {
		return 0.25 // degradation window
	}
	return 1
}

func (stepFactor) Name() string { return "step" }

func TestModulatedService(t *testing.T) {
	inner := &ConstantService{Rate: 100}
	s := &ModulatedService{Inner: inner, Factor: stepFactor{}}
	if s.Service(5) != 100 {
		t.Errorf("pre-window = %v", s.Service(5))
	}
	if s.Service(15) != 25 {
		t.Errorf("in-window = %v", s.Service(15))
	}
	if s.Service(25) != 100 {
		t.Errorf("post-window = %v", s.Service(25))
	}
	// Negative factors clamp to zero; nil factor is identity.
	neg := &ModulatedService{Inner: inner, Factor: &ConstantService{Rate: -1}}
	if neg.Service(0) != 0 {
		t.Error("negative factor must clamp to 0")
	}
	id := &ModulatedService{Inner: inner}
	if id.Service(0) != 100 {
		t.Error("nil factor must be identity")
	}
}

// TestModulatedServiceReseedAndClone: Reseed and Clone reach both the
// inner process and the factor, so no stochastic factor escapes a
// session seed or leaks state between runs.
func TestModulatedServiceReseedAndClone(t *testing.T) {
	orig := &ModulatedService{
		Inner:  &NoisyService{Mean: 100, Std: 10},
		Factor: &NoisyService{Mean: 1, Std: 0.2},
	}
	orig.Reseed(geom.NewRNG(3))
	inner, factor := orig.Inner.(*NoisyService), orig.Factor.(*NoisyService)
	if inner.RNG == nil || factor.RNG == nil || inner.RNG == factor.RNG {
		t.Fatal("Reseed must hand Inner and Factor distinct streams")
	}
	c := orig.Clone()
	if c.Inner == orig.Inner || c.Factor == orig.Factor {
		t.Fatal("Clone must deep-copy Inner and Factor")
	}
	for slot := 0; slot < 50; slot++ {
		if a, b := orig.Service(slot), c.Service(slot); a != b {
			t.Fatalf("slot %d: clone diverged from original: %v vs %v", slot, a, b)
		}
	}
	if (*ModulatedService)(nil).Clone() != nil {
		t.Error("nil clone not nil")
	}
}

func TestCloneProcess(t *testing.T) {
	if CloneProcess(nil) != nil {
		t.Error("nil process cloned to non-nil")
	}
	// Stateless processes are shared; stateful ones deep-copied.
	cs := &ConstantService{Rate: 5}
	if CloneProcess(cs) != ServiceProcess(cs) {
		t.Error("constant service should be shared")
	}
	ns := &NoisyService{Mean: 10, Std: 1, RNG: geom.NewRNG(1)}
	c, ok := CloneProcess(ns).(*NoisyService)
	if !ok || c == ns || c.RNG == ns.RNG {
		t.Fatalf("noisy clone not deep: %#v", c)
	}
	if c.Service(0) != ns.Service(0) {
		t.Error("clone must continue the original's stream")
	}
}

// TestForRun: a shape that reseeds becomes a clone reseeded from one
// stream, leaving the prototype untouched; nil and stateless shapes
// draw no stream.
func TestForRun(t *testing.T) {
	draws := 0
	stream := func() *geom.RNG { draws++; return geom.NewRNG(9) }
	cs := &ConstantService{Rate: 5}
	if ForRun(nil, stream) != nil || ForRun(cs, stream) != ServiceProcess(cs) || draws != 0 {
		t.Fatalf("nil/constant shapes: %d streams drawn, want 0", draws)
	}
	proto := &NoisyService{Mean: 10, Std: 1}
	run, ok := ForRun(proto, stream).(*NoisyService)
	if !ok || run == proto || proto.RNG != nil || draws != 1 {
		t.Fatalf("noisy shape: run %#v, prototype RNG %v, %d streams drawn", run, proto.RNG, draws)
	}
	if want := geom.NewRNG(9).NormMeanStd(10, 1); run.Service(0) != want {
		t.Errorf("run serves %v, want %v from the drawn stream", run.Service(0), want)
	}
}

// Regression: a forgotten (zero-value) constant rate must fail
// validation instead of serving nothing every slot.
func TestConstantServiceValidate(t *testing.T) {
	for _, rate := range []float64{0, -5, math.NaN(), math.Inf(1)} {
		if err := (&ConstantService{Rate: rate}).Validate(); !errors.Is(err, ErrBadConstant) {
			t.Errorf("rate %v: %v", rate, err)
		}
	}
	if err := (&ConstantService{Rate: 10}).Validate(); err != nil {
		t.Fatal(err)
	}
}

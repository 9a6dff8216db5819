// Package delay models the rendering/visualization computation cost that
// turns an Octree-depth decision into queue workload — the paper's a(d(t)),
// "the arrivals by the determined Octree depth" — and the device's service
// capacity per time slot.
package delay

import (
	"errors"
	"fmt"
	"math"

	"qarv/internal/geom"
)

// CostModel maps an Octree depth decision to the work (in work units; the
// canonical unit is "points to process") that choosing that depth enqueues
// for one frame.
type CostModel interface {
	// FrameCost returns a(d): the per-frame workload at depth d.
	FrameCost(depth int) float64
	// Name identifies the model in traces.
	Name() string
}

// Model validation errors.
var (
	ErrEmptyProfile = errors.New("delay: empty occupancy profile")
	ErrBadProfile   = errors.New("delay: occupancy profile must be non-negative and monotone")
)

// PointCostModel charges work proportional to the number of rendered
// points at depth d, plus a per-level traversal term and a fixed per-frame
// overhead: a(d) = PerPoint·points(d) + PerLevel·d + Fixed.
type PointCostModel struct {
	profile  []float64
	perPoint float64
	perLevel float64
	fixed    float64
}

var _ CostModel = (*PointCostModel)(nil)

// NewPointCostModel builds the model over an occupancy profile
// (profile[d] = rendered points at depth d). perPoint must be positive;
// perLevel and fixed are optional non-negative refinements.
func NewPointCostModel(profile []int, perPoint, perLevel, fixed float64) (*PointCostModel, error) {
	if len(profile) == 0 {
		return nil, ErrEmptyProfile
	}
	if perPoint <= 0 {
		return nil, errors.New("delay: perPoint must be positive")
	}
	if perLevel < 0 || fixed < 0 {
		return nil, errors.New("delay: perLevel and fixed must be non-negative")
	}
	p := make([]float64, len(profile))
	for i, v := range profile {
		if v < 0 || (i > 0 && v < profile[i-1]) {
			return nil, fmt.Errorf("%w: index %d", ErrBadProfile, i)
		}
		p[i] = float64(v)
	}
	return &PointCostModel{profile: p, perPoint: perPoint, perLevel: perLevel, fixed: fixed}, nil
}

// FrameCost implements CostModel.
func (m *PointCostModel) FrameCost(depth int) float64 {
	d := depth
	if d < 0 {
		d = 0
	}
	if d >= len(m.profile) {
		d = len(m.profile) - 1
	}
	return m.perPoint*m.profile[d] + m.perLevel*float64(d) + m.fixed
}

// Scaled returns a copy of the model whose every cost term is k times
// this one's, so FrameCost(d) becomes k·FrameCost(d): a device whose
// frames cost k times the reference device's. k must be positive.
func (m *PointCostModel) Scaled(k float64) (*PointCostModel, error) {
	if !(k > 0) {
		return nil, fmt.Errorf("delay: cost scale must be positive, got %v", k)
	}
	return &PointCostModel{profile: m.profile, perPoint: k * m.perPoint, perLevel: k * m.perLevel, fixed: k * m.fixed}, nil
}

// Name implements CostModel.
func (m *PointCostModel) Name() string { return "point-cost" }

// ServiceProcess yields a per-slot capacity b(t): the device's
// processing capacity in work units, the shared edge budget an
// allocator splits, or — as a unitless factor — the modulation of an
// uplink's bandwidth. Implementations must be deterministic given their
// RNG. A stateful process is advanced by non-decreasing t, one slot loop
// per instance, and returns the same value for repeated calls with the
// same t.
type ServiceProcess interface {
	// Service returns the capacity of slot t.
	Service(t int) float64
	// Name identifies the process in traces.
	Name() string
}

// ErrBadConstant reports a non-positive or non-finite constant rate.
var ErrBadConstant = errors.New("delay: constant service rate must be positive")

// ConstantService provides a fixed capacity per slot.
type ConstantService struct {
	Rate float64
}

var _ ServiceProcess = (*ConstantService)(nil)

// Service implements ServiceProcess.
func (s *ConstantService) Service(int) float64 { return s.Rate }

// Name implements ServiceProcess.
func (s *ConstantService) Name() string { return "constant" }

// Validate checks the rate, so a forgotten (zero-value) Rate fails where
// a process is validated instead of serving nothing every slot.
func (s *ConstantService) Validate() error {
	if s.Rate <= 0 || math.IsNaN(s.Rate) || math.IsInf(s.Rate, 0) {
		return fmt.Errorf("%w: %v", ErrBadConstant, s.Rate)
	}
	return nil
}

// NoisyService draws capacity from a truncated Gaussian (never negative),
// modeling OS jitter and thermal variation on a mobile device.
type NoisyService struct {
	Mean, Std float64
	RNG       *geom.RNG
}

var _ ServiceProcess = (*NoisyService)(nil)

// Service implements ServiceProcess.
func (s *NoisyService) Service(int) float64 {
	v := s.Mean
	if s.RNG != nil && s.Std > 0 {
		v = s.RNG.NormMeanStd(s.Mean, s.Std)
	}
	if v < 0 {
		v = 0
	}
	return v
}

// Name implements ServiceProcess.
func (s *NoisyService) Name() string { return "noisy" }

// Reseed replaces the process's RNG — the hook qarv.WithSeed uses to
// drive every stochastic session component from one session seed.
func (s *NoisyService) Reseed(rng *geom.RNG) { s.RNG = rng }

// ForRun returns a copy of the process reseeded with stream(), so a
// run never advances (or races) the prototype's stream.
func (s *NoisyService) ForRun(stream func() *geom.RNG) ServiceProcess {
	c := *s
	c.Reseed(stream())
	return &c
}

// ModulatedService multiplies an inner process's capacity by a factor
// process's value for the same slot — the failure-injection hook
// (thermal throttling, background contention, fading, handoffs) used by
// the robustness experiments and the CLIs' -net network classes. A nil
// Factor is the identity; a negative factor clamps to zero.
type ModulatedService struct {
	Inner  ServiceProcess
	Factor ServiceProcess
}

var _ ServiceProcess = (*ModulatedService)(nil)

// Service implements ServiceProcess.
func (s *ModulatedService) Service(t int) float64 {
	f := 1.0
	if s.Factor != nil {
		f = s.Factor.Service(t)
	}
	if f < 0 {
		f = 0
	}
	return s.Inner.Service(t) * f
}

// Name implements ServiceProcess.
func (s *ModulatedService) Name() string { return "modulated(" + s.Inner.Name() + ")" }

// Reseed hands Inner and then Factor each a child stream of rng,
// skipping (without consuming a stream) a process that has no Reseed —
// so qarv.WithSeed reaches a stochastic factor like any other
// component.
func (s *ModulatedService) Reseed(rng *geom.RNG) {
	for _, p := range []ServiceProcess{s.Inner, s.Factor} {
		if r, ok := p.(interface{ Reseed(*geom.RNG) }); ok {
			r.Reseed(rng.Split())
		}
	}
}

// ForRun draws one stream and hands Inner and then Factor each a
// child stream of it through ForRun, the same streams Reseed hands
// them, so a run reseeds its own copies and never the prototype's.
func (s *ModulatedService) ForRun(stream func() *geom.RNG) ServiceProcess {
	rng := stream()
	return &ModulatedService{Inner: ForRun(s.Inner, rng.Split), Factor: ForRun(s.Factor, rng.Split)}
}

// ForRun turns a capacity shape into one run's process. A shape with
// per-run state (NoisyService, ModulatedService and netem's Markov and
// handoff processes) declares ForRun(stream) and returns its own copy,
// reseeded from one stream() draw. Any other shape (nil, a constant, a
// trace replay) is a pure function of t: it is returned as is, and
// stream is never called, so it consumes no stream. It is the only
// place a shape prototype becomes a run's process, so every run
// replays the same capacity path without advancing the prototype.
func ForRun(p ServiceProcess, stream func() *geom.RNG) ServiceProcess {
	if r, ok := p.(interface {
		ForRun(func() *geom.RNG) ServiceProcess
	}); ok {
		return r.ForRun(stream)
	}
	return p
}

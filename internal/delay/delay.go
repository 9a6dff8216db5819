// Package delay models the rendering/visualization computation cost that
// turns an Octree-depth decision into queue workload — the paper's a(d(t)),
// "the arrivals by the determined Octree depth" — and the device's service
// capacity per time slot. The cost model can be calibrated against real
// measured LOD-extraction timings so the simulated device tracks this
// machine's actual point-processing throughput.
package delay

import (
	"errors"
	"fmt"
	"time"

	"qarv/internal/geom"
	"qarv/internal/stats"
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

// MaxDepth returns the deepest depth the model covers.
func (m *PointCostModel) MaxDepth() int { return len(m.profile) - 1 }

// Calibration is a fitted relationship between rendered points and wall
// time, measured on the host machine.
type Calibration struct {
	// NanosPerPoint is the marginal per-point processing time.
	NanosPerPoint float64
	// FixedNanos is the per-frame fixed overhead.
	FixedNanos float64
	// R2 reports fit quality.
	R2 float64
}

// CalibrateFromMeasurements fits time ≈ NanosPerPoint·points + FixedNanos
// by OLS over measured (points, duration) pairs, as produced by timing
// real LOD extractions per depth.
func CalibrateFromMeasurements(points []float64, durations []time.Duration) (Calibration, error) {
	if len(points) != len(durations) {
		return Calibration{}, errors.New("delay: calibration input length mismatch")
	}
	nanos := make([]float64, len(durations))
	for i, d := range durations {
		if d < 0 {
			return Calibration{}, errors.New("delay: negative duration")
		}
		nanos[i] = float64(d.Nanoseconds())
	}
	fit, err := stats.OLS(points, nanos)
	if err != nil {
		return Calibration{}, fmt.Errorf("delay: calibration fit: %w", err)
	}
	if fit.Slope <= 0 {
		return Calibration{}, errors.New("delay: calibration slope non-positive; measurements too noisy")
	}
	c := Calibration{NanosPerPoint: fit.Slope, FixedNanos: fit.Intercept, R2: fit.R2}
	if c.FixedNanos < 0 {
		c.FixedNanos = 0
	}
	return c, nil
}

// ServiceBudget converts a frame-period budget (e.g. 33 ms for 30 fps)
// into a per-slot work budget in points, under this calibration.
func (c Calibration) ServiceBudget(slotDuration time.Duration) float64 {
	if c.NanosPerPoint <= 0 {
		return 0
	}
	usable := float64(slotDuration.Nanoseconds()) - c.FixedNanos
	if usable <= 0 {
		return 0
	}
	return usable / c.NanosPerPoint
}

// ServiceProcess yields the device's per-slot processing capacity b(t) in
// work units. Implementations must be deterministic given their RNG.
type ServiceProcess interface {
	// Service returns the capacity of slot t.
	Service(t int) float64
	// Name identifies the process in traces.
	Name() string
}

// ConstantService provides a fixed capacity per slot.
type ConstantService struct {
	Rate float64
}

var _ ServiceProcess = (*ConstantService)(nil)

// Service implements ServiceProcess.
func (s *ConstantService) Service(int) float64 { return s.Rate }

// Name implements ServiceProcess.
func (s *ConstantService) Name() string { return "constant" }

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

// Clone returns a run-isolated copy: the RNG state is deep-copied, so
// a cloned run never advances (or races) the original's stream.
func (s *NoisyService) Clone() *NoisyService {
	if s == nil {
		return nil
	}
	c := *s
	c.RNG = s.RNG.Clone()
	return &c
}

// ModulatedService multiplies an inner process's capacity by a
// time-varying factor — the failure-injection hook (thermal throttling,
// background contention) used by the robustness experiments and the
// CLIs' -net network classes. It has no Reseed: a stochastic Factor
// (e.g. a netem.MarkovBandwidth method value) must be seeded
// explicitly by the caller — qarv.WithSeed cannot see through the
// closure, and an unseeded stochastic factor stays pinned to its start
// state.
type ModulatedService struct {
	Inner  ServiceProcess
	Factor func(t int) float64
}

var _ ServiceProcess = (*ModulatedService)(nil)

// Service implements ServiceProcess.
func (s *ModulatedService) Service(t int) float64 {
	f := 1.0
	if s.Factor != nil {
		f = s.Factor(t)
	}
	if f < 0 {
		f = 0
	}
	return s.Inner.Service(t) * f
}

// Name implements ServiceProcess.
func (s *ModulatedService) Name() string { return "modulated(" + s.Inner.Name() + ")" }

// TraceService replays a recorded capacity trace, cycling at the end.
type TraceService struct {
	Trace []float64
}

var _ ServiceProcess = (*TraceService)(nil)

// Service implements ServiceProcess.
func (s *TraceService) Service(t int) float64 {
	if len(s.Trace) == 0 {
		return 0
	}
	return s.Trace[t%len(s.Trace)]
}

// Name implements ServiceProcess.
func (s *TraceService) Name() string { return "trace" }

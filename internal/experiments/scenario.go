// Package experiments reproduces every figure of the paper's evaluation
// (Fig. 1, Fig. 2(a), Fig. 2(b)) and hosts the declarative sweep engine
// (sweep.go, axes.go) the ablations run on. Each experiment is a pure
// function from a calibrated Scenario to result rows/series, consumed by
// cmd/qarvfig, cmd/qarvsweep and bench_test.go.
package experiments

import (
	"errors"
	"fmt"
	"math"

	"qarv/internal/core"
	"qarv/internal/delay"
	"qarv/internal/fleet"
	"qarv/internal/geom"
	"qarv/internal/octree"
	"qarv/internal/pointcloud"
	"qarv/internal/policy"
	"qarv/internal/quality"
	"qarv/internal/queueing"
	"qarv/internal/sim"
	"qarv/internal/synthetic"
)

// ScenarioParams controls the calibrated Fig. 2 setup. Zero values take
// the published-experiment defaults.
type ScenarioParams struct {
	// Character selects the synthetic 8i-like subject (default longdress).
	Character string
	// Samples is the surface-sample budget of the capture (default
	// 400_000, roughly matching the 8i captures' point scale after
	// voxelization).
	Samples int
	// CaptureDepth is the capture lattice depth (default 10 = 1024³).
	CaptureDepth int
	// Depths is the candidate set R (default 5..10, the Fig. 2(b) y-range).
	Depths []int
	// ServiceFraction places the service rate b between a(d_max−1) and
	// a(d_max): b = a(d_max−1) + f·(a(d_max)−a(d_max−1)), f ∈ (0,1).
	// Zero selects the default 0.6, making the deepest depth unstable and
	// all others stable — the paper's regime; values outside (0,1) are
	// rejected with ErrBadServiceFraction.
	ServiceFraction float64
	// KneeSlot is where the proposed scheme's backlog knee should land
	// (default 400, the paper's "recognized optimized point").
	KneeSlot float64
	// Slots is the horizon T (default 800 as in Fig. 2).
	Slots int
	// Seed fixes the synthetic frame (default 1).
	Seed uint64
}

func (p ScenarioParams) withDefaults() ScenarioParams {
	if p.Character == "" {
		p.Character = "longdress"
	}
	if p.Samples <= 0 {
		p.Samples = 400_000
	}
	if p.CaptureDepth <= 0 {
		p.CaptureDepth = 10
	}
	if len(p.Depths) == 0 {
		p.Depths = []int{5, 6, 7, 8, 9, 10}
	}
	if p.ServiceFraction == 0 {
		p.ServiceFraction = 0.6
	}
	if p.KneeSlot <= 0 {
		p.KneeSlot = 400
	}
	if p.Slots <= 0 {
		p.Slots = 800
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// validate checks resolved parameters before anything is captured: the
// service fraction must lie in (0,1) and every candidate depth must fit
// inside the capture lattice.
func (p ScenarioParams) validate() error {
	if !(p.ServiceFraction > 0 && p.ServiceFraction < 1) {
		return fmt.Errorf("%w: %v", ErrBadServiceFraction, p.ServiceFraction)
	}
	for _, d := range p.Depths {
		if d > p.CaptureDepth {
			return fmt.Errorf("%w: %d > %d", ErrDepthBeyondCapture, d, p.CaptureDepth)
		}
	}
	return nil
}

// Scenario is the fully calibrated experimental setup shared by Fig. 2 and
// the ablations: a real synthetic frame's octree profile, the utility and
// cost models over it, the service rate, and the V that puts the knee at
// the configured slot.
type Scenario struct {
	Params      ScenarioParams
	Profile     []int // occupancy per depth 0..CaptureDepth
	Utility     quality.UtilityModel
	Cost        *delay.PointCostModel
	ServiceRate float64
	V           float64
}

// Scenario construction errors.
var (
	// ErrDepthBeyondCapture reports a candidate depth deeper than the
	// capture lattice.
	ErrDepthBeyondCapture = errors.New("experiments: candidate depth exceeds capture depth")
	// ErrBadServiceFraction reports a ServiceFraction outside (0,1); zero
	// selects the default instead.
	ErrBadServiceFraction = errors.New("experiments: service fraction not in (0,1)")
)

// NewScenario generates the synthetic frame, builds its octree profile,
// and calibrates V so the proposed scheme's knee lands at Params.KneeSlot.
func NewScenario(params ScenarioParams) (*Scenario, error) {
	p := params.withDefaults()
	if err := p.validate(); err != nil {
		return nil, err
	}
	_, tree, err := Capture(p)
	if err != nil {
		return nil, err
	}
	profile := tree.Profile()
	util, err := quality.NewLogPointUtility(profile)
	if err != nil {
		return nil, fmt.Errorf("utility model: %w", err)
	}
	cost, err := delay.NewPointCostModel(profile, 1, 0, 0)
	if err != nil {
		return nil, fmt.Errorf("cost model: %w", err)
	}
	return calibrate(p, profile, util, cost, p.serviceRate(cost))
}

// Capture generates the synthetic frame p describes and builds its octree
// at the capture depth, returning both. It is the one capture every
// scenario calibrates on; p must be resolved, as a Scenario's Params
// are, so a caller that needs the frame itself (e.g. to encode payloads)
// passes scn.Params and gets the frame scn was calibrated on.
func Capture(p ScenarioParams) (*pointcloud.Cloud, *octree.Octree, error) {
	ch, err := synthetic.ByName(p.Character)
	if err != nil {
		return nil, nil, err
	}
	cloud, err := synthetic.Generate(synthetic.Config{
		Character:     ch,
		SamplesTarget: p.Samples,
		CaptureDepth:  p.CaptureDepth,
		Seed:          p.Seed,
	}, synthetic.Pose{})
	if err != nil {
		return nil, nil, fmt.Errorf("generate frame: %w", err)
	}
	tree, err := octree.Build(cloud, p.CaptureDepth)
	if err != nil {
		return nil, nil, fmt.Errorf("build octree: %w", err)
	}
	return cloud, tree, nil
}

// serviceRate places a rate ServiceFraction of the way from the cost of
// the second-deepest candidate depth to the cost of the deepest:
// b = a(d_max−1) + f·(a(d_max)−a(d_max−1)). The deepest depth is then
// unstable and every other depth stable — the paper's regime.
func (p ScenarioParams) serviceRate(cost delay.CostModel) float64 {
	dMax, second := deepestTwo(p.Depths)
	aMax := cost.FrameCost(dMax)
	aSecond := cost.FrameCost(second)
	return aSecond + p.ServiceFraction*(aMax-aSecond)
}

// deepestTwo returns the deepest and second-deepest entries of depths,
// in any order; a single distinct depth is returned as both.
func deepestTwo(depths []int) (dMax, second int) {
	dMax = math.MinInt32
	for _, d := range depths {
		if d > dMax {
			dMax = d
		}
	}
	second = math.MinInt32
	for _, d := range depths {
		if d < dMax && d > second {
			second = d
		}
	}
	if second == math.MinInt32 {
		second = dMax
	}
	return dMax, second
}

// calibrate finishes every scenario: it calibrates V so the proposed
// scheme's knee lands at p.KneeSlot under the given service rate, and
// bundles the models. profile is the occupancy ladder the Scenario
// reports; cost and utility may be in any domain (points or bytes).
func calibrate(p ScenarioParams, profile []int, util quality.UtilityModel, cost *delay.PointCostModel, service float64) (*Scenario, error) {
	cfg := core.Config{Depths: p.Depths, Utility: util, Cost: cost}
	v, err := core.CalibrateV(p.KneeSlot, service, cfg)
	if err != nil {
		return nil, fmt.Errorf("calibrate V: %w", err)
	}
	return &Scenario{
		Params:      p,
		Profile:     profile,
		Utility:     util,
		Cost:        cost,
		ServiceRate: service,
		V:           v,
	}, nil
}

// Controller builds the proposed drift-plus-penalty policy with the
// scenario's calibrated V.
func (s *Scenario) Controller() (*core.Controller, error) {
	return s.ControllerWithV(s.V)
}

// ControllerWithV builds the proposed policy at an explicit V (used by the
// V-sweep ablation).
func (s *Scenario) ControllerWithV(v float64) (*core.Controller, error) {
	return core.New(core.Config{
		V:       v,
		Depths:  s.Params.Depths,
		Utility: s.Utility,
		Cost:    s.Cost,
	})
}

// SimConfig assembles the scenario's simulation configuration for a policy.
func (s *Scenario) SimConfig(p policy.Policy) sim.Config {
	return sim.Config{
		Policy:   p,
		Arrivals: &queueing.DeterministicArrivals{PerSlot: 1},
		Cost:     s.Cost,
		Utility:  s.Utility,
		Service:  &delay.ConstantService{Rate: s.ServiceRate},
		Slots:    s.Params.Slots,
	}
}

// FleetProfile builds a fleet device class from the calibrated scenario:
// the proposed controller at vFactor × the calibrated V, one frame per
// slot, constant service at the calibrated rate. Callers may override
// any field of the returned profile (e.g. swap NewArrivals for a bursty
// process) before adding it to a mix.
func (s *Scenario) FleetProfile(name string, weight, vFactor float64) fleet.Profile {
	v := s.V * vFactor
	return fleet.Profile{
		Name:   name,
		Weight: weight,
		NewPolicy: func(*geom.RNG) (policy.Policy, error) {
			return s.ControllerWithV(v)
		},
		Cost:    s.Cost,
		Utility: s.Utility,
		NewService: func(*geom.RNG) delay.ServiceProcess {
			return &delay.ConstantService{Rate: s.ServiceRate}
		},
	}
}

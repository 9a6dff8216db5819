package experiments

// Typed axes for the sweep engine: each constructor turns a value list
// into a SweepAxis whose points mutate one knob of the cell. Axis is the
// generic escape hatch for knobs without a dedicated constructor.

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"qarv/internal/alloc"
	"qarv/internal/delay"
	"qarv/internal/geom"
	"qarv/internal/learn"
	"qarv/internal/netem"
	"qarv/internal/policy"
)

// ErrBadVolatility reports a network volatility outside [0, 1).
var ErrBadVolatility = errors.New("experiments: volatility must lie in [0, 1)")

// positiveFinite reports whether f is a usable scale factor: positive
// and finite. NaN fails the comparison, so it is rejected too.
func positiveFinite(f float64) bool {
	return f > 0 && !math.IsInf(f, 1)
}

// Axis is the generic escape hatch: a named numeric axis whose apply
// function receives the cell and the point's value.
func Axis(name string, apply func(c *SweepCell, v float64) error, values ...float64) SweepAxis {
	pts := make([]AxisPoint, len(values))
	for i, v := range values {
		v := v
		pts[i] = AxisPoint{
			Label:   fmt.Sprintf("%g", v),
			Value:   v,
			Numeric: true,
			Apply: func(c *SweepCell) error {
				if apply == nil {
					return nil
				}
				return apply(c, v)
			},
		}
	}
	return SweepAxis{Name: name, Points: pts}
}

// AxisV sweeps the Lyapunov tradeoff knob: each point runs the proposed
// controller at factor × the calibrated V.
func AxisV(factors ...float64) SweepAxis {
	return Axis("v", func(c *SweepCell, f float64) error {
		if !positiveFinite(f) {
			return fmt.Errorf("experiments: V factor must be positive and finite, got %g", f)
		}
		c.VFactor = f
		return nil
	}, factors...)
}

// AxisServiceRate sweeps provisioning: each point scales the cell's base
// capacity (the calibrated service rate, or the shared budget of
// allocator cells) by the fraction.
func AxisServiceRate(fractions ...float64) SweepAxis {
	return Axis("rate", func(c *SweepCell, f float64) error {
		if !positiveFinite(f) {
			return fmt.Errorf("experiments: service fraction must be positive and finite, got %g", f)
		}
		c.ServiceFraction = f
		return nil
	}, fractions...)
}

// AxisArrivalRate sweeps offered load: each point replaces the paper's
// one-frame-per-slot arrivals with Poisson arrivals at the given mean,
// seeded from the cell seed.
func AxisArrivalRate(means ...float64) SweepAxis {
	return Axis("arrivals", func(c *SweepCell, m float64) error {
		if !positiveFinite(m) {
			return fmt.Errorf("experiments: arrival rate must be positive and finite, got %g", m)
		}
		c.ArrivalRate = m
		return nil
	}, means...)
}

// AxisSlots sweeps the horizon.
func AxisSlots(slots ...int) SweepAxis {
	pts := make([]AxisPoint, len(slots))
	for i, n := range slots {
		n := n
		pts[i] = AxisPoint{
			Label:   fmt.Sprintf("%d", n),
			Value:   float64(n),
			Numeric: true,
			Apply: func(c *SweepCell) error {
				if n <= 0 {
					return fmt.Errorf("experiments: slot count must be positive, got %d", n)
				}
				c.Slots = n
				return nil
			},
		}
	}
	return SweepAxis{Name: "slots", Points: pts}
}

// PolicySpec names one depth-policy candidate of a policy axis. New
// builds a fresh instance per cell (per session, on the fleet backend)
// so stateful policies never share state across cells.
type PolicySpec struct {
	// Name labels the point.
	Name string
	// New builds the policy over the calibrated scenario; rng is a
	// dedicated stream for stochastic policies.
	New func(s *Scenario, rng *geom.RNG) (policy.Policy, error)
}

// AxisPolicy sweeps the control policy.
func AxisPolicy(specs ...PolicySpec) SweepAxis {
	pts := make([]AxisPoint, len(specs))
	for i, spec := range specs {
		spec := spec
		pts[i] = AxisPoint{
			Label: spec.Name,
			Apply: func(c *SweepCell) error {
				if spec.New == nil {
					return fmt.Errorf("experiments: policy %q has no factory", spec.Name)
				}
				c.NewPolicy = func(c *SweepCell, rng *geom.RNG) (policy.Policy, error) {
					return spec.New(c.Scenario, rng)
				}
				return nil
			},
		}
	}
	return SweepAxis{Name: "policy", Points: pts}
}

// PolicyNames lists every name PolicyByName accepts, in display order;
// lookup errors enumerate it.
func PolicyNames() []string {
	return []string{
		"proposed", "max", "min", "random", "threshold", "oracle",
		"predictive[:H]", "delayed[:L]", "predictive-delayed[:L]",
	}
}

// PolicyByName builds the built-in policy specs over a calibrated
// scenario: "proposed" (the drift-plus-penalty controller), "max",
// "min", "random", "threshold" (hysteresis around the controller's
// switch backlog), and "oracle" (best fixed depth for the calibrated
// rate). Three parameterized forms wrap the proposed controller with
// the learning layer: "predictive[:H]" extrapolates the backlog H
// slots ahead (learn.Predictive), "delayed[:L]" feeds it observations
// L slots stale (learn.Lagged — the controller across a delayed
// control loop), and "predictive-delayed[:L]" composes both with
// horizon matched to the lag, isolating what prediction buys back
// under the same delay.
func PolicyByName(name string) (PolicySpec, error) {
	if base, param, _ := strings.Cut(name, ":"); base == "predictive" || base == "delayed" || base == "predictive-delayed" {
		return learnPolicySpec(name, base, param)
	}
	switch name {
	case "proposed":
		return PolicySpec{Name: name, New: func(s *Scenario, _ *geom.RNG) (policy.Policy, error) {
			return s.Controller()
		}}, nil
	case "max":
		return PolicySpec{Name: name, New: func(s *Scenario, _ *geom.RNG) (policy.Policy, error) {
			return policy.NewMaxDepth(s.Params.Depths)
		}}, nil
	case "min":
		return PolicySpec{Name: name, New: func(s *Scenario, _ *geom.RNG) (policy.Policy, error) {
			return policy.NewMinDepth(s.Params.Depths)
		}}, nil
	case "random":
		return PolicySpec{Name: name, New: func(s *Scenario, rng *geom.RNG) (policy.Policy, error) {
			if rng == nil {
				rng = geom.NewRNG(s.Params.Seed)
			}
			return policy.NewRandom(s.Params.Depths, rng)
		}}, nil
	case "threshold":
		return PolicySpec{Name: name, New: func(s *Scenario, _ *geom.RNG) (policy.Policy, error) {
			ctrl, err := s.Controller()
			if err != nil {
				return nil, err
			}
			return policy.NewThreshold(s.Params.Depths,
				0.5*ctrl.SwitchBacklog(), ctrl.SwitchBacklog())
		}}, nil
	case "oracle":
		return PolicySpec{Name: name, New: func(s *Scenario, _ *geom.RNG) (policy.Policy, error) {
			return policy.BestFixed(s.Params.Depths, s.Cost, s.ServiceRate)
		}}, nil
	default:
		return PolicySpec{}, fmt.Errorf("experiments: unknown policy %q (want one of %s)", name, strings.Join(PolicyNames(), ", "))
	}
}

// policySpecs looks up each name with PolicyByName, in order.
func policySpecs(names ...string) ([]PolicySpec, error) {
	specs := make([]PolicySpec, len(names))
	for i, name := range names {
		spec, err := PolicyByName(name)
		if err != nil {
			return nil, err
		}
		specs[i] = spec
	}
	return specs, nil
}

// learnPolicySpec builds the parameterized learning-layer policy specs:
// predictive[:H], delayed[:L], and predictive-delayed[:L].
func learnPolicySpec(name, base, param string) (PolicySpec, error) {
	n := 0
	if param != "" {
		v, err := strconv.Atoi(param)
		if err != nil || v < 1 {
			return PolicySpec{}, fmt.Errorf("experiments: policy %q: bad parameter %q (want a positive slot count)", name, param)
		}
		n = v
	}
	ctrl := func(s *Scenario) (policy.Policy, error) { return s.Controller() }
	switch base {
	case "predictive":
		h := n
		if h == 0 {
			h = learn.DefaultHorizon
		}
		return PolicySpec{Name: name, New: func(s *Scenario, _ *geom.RNG) (policy.Policy, error) {
			inner, err := ctrl(s)
			if err != nil {
				return nil, err
			}
			return learn.NewPredictive(inner, float64(h), 0), nil
		}}, nil
	case "delayed":
		lag := n
		if lag == 0 {
			lag = learn.DefaultLag
		}
		return PolicySpec{Name: name, New: func(s *Scenario, _ *geom.RNG) (policy.Policy, error) {
			inner, err := ctrl(s)
			if err != nil {
				return nil, err
			}
			return learn.NewLagged(inner, lag), nil
		}}, nil
	default: // predictive-delayed
		lag := n
		if lag == 0 {
			lag = learn.DefaultLag
		}
		return PolicySpec{Name: name, New: func(s *Scenario, _ *geom.RNG) (policy.Policy, error) {
			inner, err := ctrl(s)
			if err != nil {
				return nil, err
			}
			return learn.NewLagged(learn.NewPredictive(inner, float64(lag), 0), lag), nil
		}}, nil
	}
}

// AxisAllocator sweeps the shared-budget split strategy by allocator
// name ("equal", "proportional", "maxweight", "wrr", plus registered
// parameterized names like "bandit:8" and "gradient:0.2" — see
// alloc.ByName), building a fresh instance per cell so stateful
// allocators never share state. Allocator cells run on the pool
// backend only; learned allocators are reseeded from the cell seed.
func AxisAllocator(names ...string) SweepAxis {
	pts := make([]AxisPoint, len(names))
	for i, name := range names {
		name := name
		pts[i] = AxisPoint{
			Label: name,
			Apply: func(c *SweepCell) error {
				// Validate eagerly so a bad name fails the sweep before
				// any cell runs.
				if _, err := alloc.ByName(name); err != nil {
					return err
				}
				c.NewAllocator = func() (alloc.Allocator, error) { return alloc.ByName(name) }
				return nil
			},
		}
	}
	return SweepAxis{Name: "allocator", Points: pts}
}

// SweepNetwork names one capacity shape of a network axis: a unitless
// factor process on the cell's base capacity, with nil meaning static.
// Each run (each session, on the fleet backend) modulates its base by
// its own copy of Factor, made by delay.ForRun.
type SweepNetwork struct {
	// Name labels the point.
	Name string
	// Factor is the shape's prototype; runs never advance it.
	Factor delay.ServiceProcess
	// Err, when non-nil, fails the sweep at grid build (constructors
	// report invalid parameters here).
	Err error
}

// New builds one run's capacity process around base: base alone for a
// static shape, otherwise base modulated by a copy of Factor reseeded
// from rng when it reseeds.
func (n SweepNetwork) New(base float64, rng *geom.RNG) delay.ServiceProcess {
	if n.Factor == nil {
		return &delay.ConstantService{Rate: base}
	}
	return &delay.ModulatedService{
		Inner:  &delay.ConstantService{Rate: base},
		Factor: delay.ForRun(n.Factor, func() *geom.RNG { return rng }),
	}
}

// AxisNetwork sweeps the network/capacity shape; each point also names
// the fleet profile of fleet-backend cells.
func AxisNetwork(nets ...SweepNetwork) SweepAxis {
	pts := make([]AxisPoint, len(nets))
	for i, net := range nets {
		net := net
		pts[i] = AxisPoint{
			Label: net.Name,
			Apply: func(c *SweepCell) error {
				if net.Err != nil {
					return net.Err
				}
				c.NewService = func(_ *SweepCell, base float64, rng *geom.RNG) delay.ServiceProcess {
					return net.New(base, rng)
				}
				c.ProfileName = net.Name
				return nil
			},
		}
	}
	return SweepAxis{Name: "net", Points: pts}
}

// NetworkStatic is the degenerate constant-capacity shape.
func NetworkStatic() SweepNetwork { return SweepNetwork{Name: "static"} }

// NetworkMarkov is the mean-preserving Gilbert–Elliott fading shape of
// the network-volatility ablation: NetworkMarkovDwell with symmetric
// 10-slot mean dwells, labelled by volatility alone.
func NetworkMarkov(volatility float64) SweepNetwork {
	n := NetworkMarkovDwell(volatility, 10)
	n.Name = fmt.Sprintf("markov-v%.2f", volatility)
	return n
}

// NetworkMarkovDwell is the mean-preserving Gilbert–Elliott fading
// shape with an explicit mean state dwell: the good state serves at
// (1+v)× and the bad state at (1−v)× the base rate, each left with
// probability 1/dwellSlots per slot, so the stationary mean equals the
// base rate at every volatility. v must lie in [0, 1); anything else
// (NaN included) fails with ErrBadVolatility. Long dwells turn the
// fading into slow, sustained capacity epochs — the backlog then trends
// for tens of slots at a time, which is the regime where predictive
// extrapolation (learn.Predictive) can actually pay; short dwells
// mean-revert faster than any useful prediction horizon.
func NetworkMarkovDwell(volatility, dwellSlots float64) SweepNetwork {
	n := SweepNetwork{Name: fmt.Sprintf("markov-v%.2f-d%g", volatility, dwellSlots)}
	if math.IsNaN(volatility) || volatility < 0 || volatility >= 1 {
		n.Err = fmt.Errorf("%w: %v", ErrBadVolatility, volatility)
		return n
	}
	if math.IsNaN(dwellSlots) || dwellSlots < 1 || math.IsInf(dwellSlots, 1) {
		n.Err = fmt.Errorf("experiments: markov dwell must be a finite count >= 1 slot, got %g", dwellSlots)
		return n
	}
	p := 1 / dwellSlots
	n.Factor = &netem.MarkovBandwidth{
		GoodRate: 1 + volatility, BadRate: 1 - volatility,
		PGoodBad: p, PBadGood: p,
	}
	return n
}

// NetworkHandoff is the mobility shape: the default handoff factor
// process (mean 250-slot cell dwells, 4-slot outages, new-cell scale in
// [0.7, 1.2]).
func NetworkHandoff() SweepNetwork {
	return SweepNetwork{Name: "handoff", Factor: netem.DefaultHandoffFactor(nil)}
}

// NetworkTrace replays a factor trace over the base capacity. The trace
// is a pure function of the slot, so every run shares it.
func NetworkTrace(tb *netem.TraceBandwidth) SweepNetwork {
	if tb == nil {
		return SweepNetwork{Name: "trace", Err: fmt.Errorf("experiments: NetworkTrace needs a trace")}
	}
	return SweepNetwork{Name: tb.Name(), Factor: tb}
}

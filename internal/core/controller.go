// Package core implements the paper's contribution: the Lyapunov
// drift-plus-penalty controller that picks the Octree depth each time slot
// to maximize time-average AR visualization quality subject to queue
// stability (paper equations (1)–(3)).
//
// Per-slot closed form (Eq. (3)):
//
//	d*(t) = argmax_{d ∈ R} [ V·pa(d) − Q(t)·a(d) ]
//
// where pa(d) is the quality utility of depth d, a(d) the workload the
// depth enqueues, Q(t) the current backlog, and V ≥ 0 the quality/delay
// tradeoff coefficient. The decision needs only local state (Q) and the
// static tables pa/a — no side information — so it runs fully distributed,
// and costs O(|R|) per slot.
//
// Paper erratum: Algorithm 1 in the paper keeps the minimum index
// (`if I ≤ I*`), contradicting Eq. (3)'s argmax; the min-variant pins the
// cheapest depth when Q grows and the *highest-cost* depth when Q ≈ 0 is
// impossible — in fact it always picks the depth minimizing the index,
// which destabilizes the Fig. 2 scenario. Decide implements the argmax;
// DecideAlgorithm1Verbatim implements the printed pseudo-code so the
// regression test can demonstrate the difference.
package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"qarv/internal/delay"
	"qarv/internal/quality"
)

// Config parameterizes a Controller.
type Config struct {
	// V is the quality/delay tradeoff coefficient (≥ 0). Larger V favors
	// quality (and admits O(V) backlog); smaller V favors low delay (and
	// pays an O(1/V) utility gap).
	V float64
	// Depths is the candidate set R of octree depths.
	Depths []int
	// Utility is pa(·), the per-slot quality model.
	Utility quality.UtilityModel
	// Cost is a(·), the per-frame workload model.
	Cost delay.CostModel
}

// Config validation errors; matchable with errors.Is.
var (
	ErrNoDepths    = errors.New("core: empty depth candidate set")
	ErrNegativeV   = errors.New("core: V must be non-negative")
	ErrNilUtility  = errors.New("core: nil utility model")
	ErrNilCost     = errors.New("core: nil cost model")
	ErrBadUtility  = errors.New("core: utility must be strictly increasing over the depth set")
	ErrBadCost     = errors.New("core: cost must be strictly increasing over the depth set")
	ErrNoTradeoff  = errors.New("core: calibration requires at least two depths")
	ErrBadKnee     = errors.New("core: calibration knee must be positive")
	ErrNotUnstable = errors.New("core: calibration requires the max depth to exceed the service rate")
)

// Controller is the stabilized AR visualization controller (Algorithm 1,
// corrected). It is stateless between slots: the queue is observed, not
// owned, matching the paper's fully distributed claim.
type Controller struct {
	v       float64
	depths  []int
	utility []float64 // pa(d) per candidate, precomputed
	cost    []float64 // a(d) per candidate, precomputed
}

// New validates cfg and precomputes the per-candidate utility/cost tables.
func New(cfg Config) (*Controller, error) {
	if len(cfg.Depths) == 0 {
		return nil, ErrNoDepths
	}
	if cfg.V < 0 {
		return nil, fmt.Errorf("%w: %v", ErrNegativeV, cfg.V)
	}
	if cfg.Utility == nil {
		return nil, ErrNilUtility
	}
	if cfg.Cost == nil {
		return nil, ErrNilCost
	}
	depths := make([]int, len(cfg.Depths))
	copy(depths, cfg.Depths)
	sort.Ints(depths)
	// Dedupe.
	uniq := depths[:0]
	for i, d := range depths {
		if i == 0 || d != depths[i-1] {
			uniq = append(uniq, d)
		}
	}
	depths = uniq
	c := &Controller{
		v:       cfg.V,
		depths:  depths,
		utility: make([]float64, len(depths)),
		cost:    make([]float64, len(depths)),
	}
	for i, d := range depths {
		c.utility[i] = cfg.Utility.Utility(d)
		c.cost[i] = cfg.Cost.FrameCost(d)
		if i > 0 {
			if c.utility[i] <= c.utility[i-1] {
				return nil, fmt.Errorf("%w: pa(%d)=%v, pa(%d)=%v",
					ErrBadUtility, depths[i-1], c.utility[i-1], depths[i], c.utility[i])
			}
			if c.cost[i] <= c.cost[i-1] {
				return nil, fmt.Errorf("%w: a(%d)=%v, a(%d)=%v",
					ErrBadCost, depths[i-1], c.cost[i-1], depths[i], c.cost[i])
			}
		}
	}
	return c, nil
}

// Name identifies the controller in traces (policy interface).
func (c *Controller) Name() string { return "drift-plus-penalty" }

// Decide returns d*(t) for the observed backlog, per Eq. (3). The slot
// argument is unused (the decision depends only on Q(t)); it exists so the
// controller satisfies the simulator's Policy interface directly.
// Ties keep the deepest maximizing depth (quality-favoring).
func (c *Controller) Decide(_ int, backlog float64) int {
	best := 0
	bestIdx := math.Inf(-1)
	for i := range c.depths {
		idx := c.v*c.utility[i] - backlog*c.cost[i]
		if idx >= bestIdx {
			bestIdx = idx
			best = i
		}
	}
	return c.depths[best]
}

// Candidate is one row of a detailed decision: the drift-plus-penalty
// index of a candidate depth at the observed backlog.
type Candidate struct {
	Depth   int
	Utility float64 // pa(d)
	Cost    float64 // a(d)
	Index   float64 // V·pa(d) − Q·a(d)
}

// Decision is the detailed output of one control slot.
type Decision struct {
	Backlog    float64
	Depth      int // chosen d*(t)
	Index      float64
	Candidates []Candidate
}

// DecideDetailed returns the chosen depth with the full index table, for
// tracing and the figure harness.
func (c *Controller) DecideDetailed(backlog float64) Decision {
	dec := Decision{Backlog: backlog, Candidates: make([]Candidate, len(c.depths))}
	bestIdx := math.Inf(-1)
	for i, d := range c.depths {
		idx := c.v*c.utility[i] - backlog*c.cost[i]
		dec.Candidates[i] = Candidate{Depth: d, Utility: c.utility[i], Cost: c.cost[i], Index: idx}
		if idx >= bestIdx {
			bestIdx = idx
			dec.Depth = d
			dec.Index = idx
		}
	}
	return dec
}

// DecideAlgorithm1Verbatim implements the paper's printed pseudo-code
// *verbatim*, including its `I ≤ I*` minimization bug (see the package
// comment). It exists only for the errata regression test and must not be
// used for control.
func (c *Controller) DecideAlgorithm1Verbatim(backlog float64) int {
	best := 0
	bestIdx := math.Inf(1)
	for i := range c.depths {
		idx := c.v*c.utility[i] - backlog*c.cost[i]
		if idx <= bestIdx { // the paper's line 8: "if I ≤ I*"
			bestIdx = idx
			best = i
		}
	}
	return c.depths[best]
}

// SwitchBacklog returns the backlog level Q* above which the controller
// abandons the deepest candidate: the smallest Q at which some shallower
// depth's index overtakes the deepest depth's,
// Q* = V · min_{d' < d_max} (pa(d_max) − pa(d')) / (a(d_max) − a(d')).
// This is the knee of Fig. 2; with constant drift r = a(d_max) − b the
// knee lands at slot Q*/r.
func (c *Controller) SwitchBacklog() float64 {
	n := len(c.depths)
	if n < 2 {
		return math.Inf(1)
	}
	minRatio := math.Inf(1)
	for i := 0; i < n-1; i++ {
		dPa := c.utility[n-1] - c.utility[i]
		dA := c.cost[n-1] - c.cost[i]
		if ratio := dPa / dA; ratio < minRatio {
			minRatio = ratio
		}
	}
	return c.v * minRatio
}

// CalibrateV computes the V that places the Fig. 2 knee at the given slot,
// assuming the scenario starts at Q=0 and the deepest depth's drift rate is
// r = a(d_max) − serviceRate > 0: the controller leaves d_max when
// Q > Q* = V·minRatio, and Q reaches kneeSlot·r at the knee, so
// V = kneeSlot·r / minRatio. This inverts the hand-tuning the authors did
// to land their knee at 400 unit times.
func CalibrateV(kneeSlot float64, serviceRate float64, cfg Config) (float64, error) {
	if kneeSlot <= 0 {
		return 0, ErrBadKnee
	}
	probe := cfg
	probe.V = 1
	c, err := New(probe)
	if err != nil {
		return 0, err
	}
	if len(c.depths) < 2 {
		return 0, ErrNoTradeoff
	}
	r := c.cost[len(c.cost)-1] - serviceRate
	if r <= 0 {
		return 0, fmt.Errorf("%w: a(max)=%v, service=%v",
			ErrNotUnstable, c.cost[len(c.cost)-1], serviceRate)
	}
	minRatio := c.SwitchBacklog() // V=1 ⇒ this is exactly minRatio
	if math.IsInf(minRatio, 1) || minRatio <= 0 {
		return 0, ErrNoTradeoff
	}
	return kneeSlot * r / minRatio, nil
}

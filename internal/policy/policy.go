// Package policy defines the depth-selection policy interface shared by
// the simulator and implements the baselines the paper compares against
// (only max-Depth, only min-Depth) plus the extra reference policies used
// by the ablation experiments (fixed, random, hysteresis threshold, and
// the offline best-fixed oracle).
package policy

import (
	"errors"
	"fmt"
	"sort"

	"qarv/internal/core"
	"qarv/internal/delay"
	"qarv/internal/geom"
)

// Policy chooses an Octree depth each slot from the backlog observation.
// Implementations must be side-effect free with respect to the queue.
type Policy interface {
	// Decide returns the depth d(t) for slot t given backlog Q(t).
	Decide(slot int, backlog float64) int
	// Name identifies the policy in traces and figures.
	Name() string
}

// The drift-plus-penalty controller is itself a Policy.
var _ Policy = (*core.Controller)(nil)

// Policy construction errors.
var (
	ErrNoDepths     = errors.New("policy: empty depth set")
	ErrBadThreshold = errors.New("policy: high watermark must exceed low watermark")
	ErrNoStable     = errors.New("policy: no candidate depth is stabilizable at the given service rate")
)

func checkDepths(depths []int) ([]int, error) {
	if len(depths) == 0 {
		return nil, ErrNoDepths
	}
	out := make([]int, len(depths))
	copy(out, depths)
	sort.Ints(out)
	return out, nil
}

// MaxDepth always renders at the deepest candidate — the paper's
// "only max-Depth" control, which maximizes instantaneous quality and
// diverges when a(d_max) exceeds the service rate.
type MaxDepth struct {
	depth int
}

var _ Policy = (*MaxDepth)(nil)

// NewMaxDepth builds the baseline over the candidate set.
func NewMaxDepth(depths []int) (*MaxDepth, error) {
	ds, err := checkDepths(depths)
	if err != nil {
		return nil, err
	}
	return &MaxDepth{depth: ds[len(ds)-1]}, nil
}

// Decide implements Policy.
func (p *MaxDepth) Decide(int, float64) int { return p.depth }

// Name implements Policy.
func (p *MaxDepth) Name() string { return "only max-Depth" }

// MinDepth always renders at the shallowest candidate — the paper's
// "only min-Depth" control, which drains the queue but wastes quality.
type MinDepth struct {
	depth int
}

var _ Policy = (*MinDepth)(nil)

// NewMinDepth builds the baseline over the candidate set.
func NewMinDepth(depths []int) (*MinDepth, error) {
	ds, err := checkDepths(depths)
	if err != nil {
		return nil, err
	}
	return &MinDepth{depth: ds[0]}, nil
}

// Decide implements Policy.
func (p *MinDepth) Decide(int, float64) int { return p.depth }

// Name implements Policy.
func (p *MinDepth) Name() string { return "only min-Depth" }

// FixedDepth always picks one configured depth.
type FixedDepth struct {
	Depth int
}

var _ Policy = (*FixedDepth)(nil)

// Decide implements Policy.
func (p *FixedDepth) Decide(int, float64) int { return p.Depth }

// Name implements Policy.
func (p *FixedDepth) Name() string { return fmt.Sprintf("fixed-depth(%d)", p.Depth) }

// Random picks a uniform random candidate each slot — the naive reference
// showing that adaptation must be backlog-aware, not merely varied.
type Random struct {
	depths []int
	rng    *geom.RNG
}

var _ Policy = (*Random)(nil)

// NewRandom builds the baseline; rng must not be nil for variation (a nil
// rng degenerates to the first depth).
func NewRandom(depths []int, rng *geom.RNG) (*Random, error) {
	ds, err := checkDepths(depths)
	if err != nil {
		return nil, err
	}
	return &Random{depths: ds, rng: rng}, nil
}

// Decide implements Policy.
func (p *Random) Decide(int, float64) int {
	if p.rng == nil {
		return p.depths[0]
	}
	return p.depths[p.rng.Intn(len(p.depths))]
}

// Name implements Policy.
func (p *Random) Name() string { return "random" }

// Reseed replaces the policy's RNG — the hook qarv.WithSeed uses to
// drive every stochastic session component from one session seed.
func (p *Random) Reseed(rng *geom.RNG) { p.rng = rng }

// Threshold is a two-watermark hysteresis controller: while the backlog is
// below Low it steps the depth up one candidate; above High it steps down;
// in between it holds. This is the natural hand-tuned heuristic an engineer
// would write without the Lyapunov machinery; the ablations compare it to
// the drift-plus-penalty controller.
type Threshold struct {
	depths    []int
	low, high float64
	pos       int // current index into depths
}

var _ Policy = (*Threshold)(nil)

// NewThreshold builds the hysteresis baseline starting at the deepest
// candidate.
func NewThreshold(depths []int, low, high float64) (*Threshold, error) {
	ds, err := checkDepths(depths)
	if err != nil {
		return nil, err
	}
	if high <= low {
		return nil, fmt.Errorf("%w: low=%v high=%v", ErrBadThreshold, low, high)
	}
	return &Threshold{depths: ds, low: low, high: high, pos: len(ds) - 1}, nil
}

// Decide implements Policy. Unlike the stateless controller, Threshold
// carries the current depth position between slots.
func (p *Threshold) Decide(_ int, backlog float64) int {
	switch {
	case backlog > p.high && p.pos > 0:
		p.pos--
	case backlog < p.low && p.pos < len(p.depths)-1:
		p.pos++
	}
	return p.depths[p.pos]
}

// Name implements Policy.
func (p *Threshold) Name() string { return "threshold" }

// BestFixed returns the offline-optimal *fixed* depth for a known constant
// service rate: the deepest candidate whose per-slot workload stays within
// the service rate (so the queue is stable). It is the static oracle the
// adaptive controller should approach from above in quality.
func BestFixed(depths []int, cost delay.CostModel, serviceRate float64) (*FixedDepth, error) {
	ds, err := checkDepths(depths)
	if err != nil {
		return nil, err
	}
	best := -1
	for _, d := range ds {
		if cost.FrameCost(d) <= serviceRate {
			best = d
		}
	}
	if best < 0 {
		return nil, fmt.Errorf("%w: rate %v", ErrNoStable, serviceRate)
	}
	return &FixedDepth{Depth: best}, nil
}

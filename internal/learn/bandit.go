package learn

import (
	"fmt"
	"math"

	"qarv/internal/geom"
	"qarv/internal/obs"
)

// Bandit default hyperparameters. The exploration rate follows the
// usual EXP3 regime (a constant fraction of slots spent sampling
// uniformly); the backlog penalty converts queue pressure into the
// reward's units so a diverging arm scores poorly long before its
// utility collapses.
const (
	banditGamma       = 0.1
	banditPenalty     = 0.5
	banditDefaultSeed = 0x62616e646974 // "bandit"
	// banditMaxTilt is the largest backlog-tilt exponent in the arm
	// set: tilt 0 is equal-split, banditMaxTilt is strongly
	// longest-queue-biased.
	banditMaxTilt = 3.0
)

// Bandit is an EXP3 bandit over a discrete set of share
// configurations. Each arm is a backlog-tilt exponent θ: the arm maps
// the observed backlogs to the simplex point w_i ∝ (1+Q_i)^θ, so arm 0
// (θ=0) reproduces EqualSplit while the largest arm approaches a
// max-weight-like split. Every slot the bandit samples an arm from the
// EXP3 mixture, allocates budget·w, and — via the alloc.Learner
// feedback — scores the arm with reward = mean device utility minus a
// backlog penalty, normalized online to [0,1].
//
// The only randomness is the arm draw, held in a *geom.RNG behind
// Reseed; with the RNG pinned the whole trajectory is deterministic.
type Bandit struct {
	arms    int
	gamma   float64
	penalty float64
	rng     *geom.RNG

	tilts   []float64 // arm k's backlog-tilt exponent
	weights []float64 // EXP3 weights
	probs   []float64 // last sampling distribution

	lastArm   int
	lastValid bool
	explored  bool // lastArm was drawn by uniform exploration

	// Online reward normalization and regret accounting.
	uScale, qScale float64
	rewMin, rewMax float64
	haveRew        bool
	plays          []float64
	meanReward     []float64
	totalReward    float64
	rounds         float64

	tel *telemetry
}

// NewBandit returns an EXP3 bandit over arms share configurations
// (arms < 1 is clamped to 1). The zero-value RNG seed is a fixed
// package constant; engines reseed it per run via Reseed.
func NewBandit(arms int) *Bandit {
	if arms < 1 {
		arms = 1
	}
	b := &Bandit{
		arms:    arms,
		gamma:   banditGamma,
		penalty: banditPenalty,
		rng:     geom.NewRNG(banditDefaultSeed),
		tilts:   make([]float64, arms),
		weights: make([]float64, arms),
		probs:   make([]float64, arms),

		plays:      make([]float64, arms),
		meanReward: make([]float64, arms),
	}
	for k := range b.tilts {
		if arms > 1 {
			b.tilts[k] = banditMaxTilt * float64(k) / float64(arms-1)
		}
		b.weights[k] = 1
	}
	return b
}

// Name implements alloc.Allocator.
func (b *Bandit) Name() string { return fmt.Sprintf("bandit:%d", b.arms) }

// Reseed replaces the bandit's RNG — the hook engines use to drive the
// arm draws from one run seed.
func (b *Bandit) Reseed(rng *geom.RNG) { b.rng = rng }

// BindTelemetry attaches the run's telemetry sinks (either may be
// nil); the simulator calls it once before the slot loop.
func (b *Bandit) BindTelemetry(reg *obs.Registry, rec *obs.FlightRecorder) {
	b.tel = newTelemetry(reg, rec)
}

// Allocate implements alloc.Allocator: sample an arm from the EXP3
// mixture and split the budget along the arm's backlog tilt.
func (b *Bandit) Allocate(t int, budget float64, backlogs, shares []float64) {
	n := len(shares)
	if n == 0 {
		return
	}
	// p_k = (1-γ)·w_k/Σw + γ/K, realized as an explicit two-stage
	// draw so exploration slots are well-defined events.
	var sumW float64
	for _, w := range b.weights {
		sumW += w
	}
	for k, w := range b.weights {
		b.probs[k] = (1-b.gamma)*w/sumW + b.gamma/float64(b.arms)
	}
	arm := 0
	b.explored = b.rng.Float64() < b.gamma
	if b.explored {
		arm = b.rng.Intn(b.arms)
	} else {
		u := b.rng.Float64() * sumW
		var acc float64
		for k, w := range b.weights {
			acc += w
			if u < acc || k == b.arms-1 {
				arm = k
				break
			}
		}
	}
	b.lastArm = arm
	b.lastValid = true

	theta := b.tilts[arm]
	var total float64
	for i := 0; i < n; i++ {
		q := backlogs[i]
		if q < 0 {
			q = 0
		}
		shares[i] = math.Pow(1+q, theta)
		total += shares[i]
	}
	for i := 0; i < n; i++ {
		shares[i] = budget * shares[i] / total
	}
	if b.tel != nil {
		if b.explored {
			b.tel.exploration.Inc()
		}
		b.tel.rec.Event(int64(t), "learn", b.Name(), int64(arm), theta)
	}
}

// Learn implements alloc.Learner: score the last-pulled arm with the
// slot's realized outcome and apply the importance-weighted EXP3
// update.
func (b *Bandit) Learn(t int, utilities, backlogs []float64) {
	if !b.lastValid || len(utilities) == 0 {
		return
	}
	b.lastValid = false
	n := float64(len(utilities))
	var u, q float64
	for _, v := range utilities {
		u += v
	}
	for _, v := range backlogs {
		if v > 0 {
			q += v
		}
	}
	u /= n
	q /= n
	// Utility and backlog live in unrelated units (quality scores vs
	// queued work), so each term is normalized by its running scale
	// before mixing — otherwise whichever unit happens to be numerically
	// larger silently decides what the bandit optimizes.
	if a := math.Abs(u); a > b.uScale {
		b.uScale = a
	}
	if q > b.qScale {
		b.qScale = q
	}
	raw := 0.0
	if b.uScale > 0 {
		raw = u / b.uScale
	}
	if b.qScale > 0 {
		raw -= b.penalty * q / b.qScale
	}

	// Normalize online into [0,1]; before the range opens up, score
	// the neutral midpoint so early slots neither inflate nor sink an
	// arm.
	if !b.haveRew {
		b.rewMin, b.rewMax = raw, raw
		b.haveRew = true
	}
	if raw < b.rewMin {
		b.rewMin = raw
	}
	if raw > b.rewMax {
		b.rewMax = raw
	}
	r := 0.5
	if span := b.rewMax - b.rewMin; span > 0 {
		r = (raw - b.rewMin) / span
	}

	arm := b.lastArm
	// Importance-weighted update, then rescale so weights stay finite
	// over arbitrarily long runs.
	b.weights[arm] *= math.Exp(b.gamma * r / (float64(b.arms) * b.probs[arm]))
	var maxW float64
	for _, w := range b.weights {
		if w > maxW {
			maxW = w
		}
	}
	if maxW > 1e12 {
		for k := range b.weights {
			b.weights[k] /= maxW
		}
	}

	b.plays[arm]++
	b.meanReward[arm] += (r - b.meanReward[arm]) / b.plays[arm]
	b.totalReward += r
	b.rounds++
	if b.tel != nil {
		b.tel.updates.Inc()
		b.tel.regret.Record(b.Regret())
		b.tel.rec.Event(int64(t), "learn", "reward", int64(arm), r)
	}
}

// Regret returns the cumulative estimated regret in normalized reward
// units: the empirically-best arm's mean reward over all rounds minus
// the reward actually collected, clamped at zero.
func (b *Bandit) Regret() float64 {
	var best float64
	for k, m := range b.meanReward {
		if b.plays[k] > 0 && m > best {
			best = m
		}
	}
	reg := best*b.rounds - b.totalReward
	if reg < 0 {
		return 0
	}
	return reg
}

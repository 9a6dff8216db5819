package qarv

import (
	"context"

	"qarv/internal/alloc"
	"qarv/internal/experiments"
	"qarv/internal/learn"
)

// ---------------------------------------------------------------------------
// Learning layer (online allocators + predictive display policy)
// ---------------------------------------------------------------------------

type (
	// Bandit is the EXP3 online-learning allocator: arms are discrete
	// backlog-tilt share configurations, rewarded per slot by observed
	// device utility minus a backlog penalty. Build with NewBandit or
	// AllocatorByName("bandit:ARMS"); the projected-gradient learner is
	// AllocatorByName("gradient:STEP").
	Bandit = learn.Bandit
	// LearnSweepParams configures the learning-layer ablation; zero
	// values take the documented defaults.
	LearnSweepParams = experiments.LearnSweepParams
	// LearnSweepReport is the ablation's seed-pinned outcome: raw
	// allocator and policy grids plus per-regime winner tables.
	LearnSweepReport = experiments.LearnSweepReport
	// LearnRegime names the winning strategy of one network regime.
	LearnRegime = experiments.LearnRegime
)

// DefaultBanditArms is the EXP3 allocator's default arm count.
const DefaultBanditArms = learn.DefaultArms

// NewBandit returns the EXP3 allocator over arms backlog-tilt share
// configurations (engines reseed it per run).
func NewBandit(arms int) *Bandit { return learn.NewBandit(arms) }

// AllocatorNames lists every name AllocatorByName accepts — builtins
// plus registered parameterized forms — in display order.
func AllocatorNames() []string { return alloc.Names() }

// SweepPolicyNames lists every name SweepPolicyByName accepts, in
// display order.
func SweepPolicyNames() []string { return experiments.PolicyNames() }

// NetworkMarkovDwell is the slow-fading sweep shape: Gilbert–Elliott
// fading at the given volatility with mean state dwells of dwellSlots
// slots — the sustained-drift regime where predictive display pays.
func NetworkMarkovDwell(volatility, dwellSlots float64) SweepNetwork {
	return experiments.NetworkMarkovDwell(volatility, dwellSlots)
}

// LearnSweep runs the learning-layer ablation over a calibrated
// scenario: learned allocators against every static split strategy, and
// the predictive-display policy against the stock controller with and
// without control-loop delay, each crossed with the network axis. The
// report is byte-identical per seed at any worker count, and its regime
// tables name each network column's winner by the drift-plus-penalty
// score V·U − Q̄.
func LearnSweep(ctx context.Context, s *Scenario, params LearnSweepParams) (*LearnSweepReport, error) {
	return experiments.LearnSweep(ctx, s, params)
}

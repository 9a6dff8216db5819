package experiments

import (
	"context"
	"fmt"

	"qarv/internal/learn"
	"qarv/internal/obs"
)

// ---------------------------------------------------------------------------
// ABL-LEARN — where does online learning beat the paper's control plane?
// ---------------------------------------------------------------------------

// LearnSweepParams configures the learning-layer ablation. Zero values
// take the documented defaults, so LearnSweep(ctx, s,
// LearnSweepParams{}) runs the canonical grid.
type LearnSweepParams struct {
	// Networks are the network axis's shapes (NetworkStatic,
	// NetworkMarkov and the rest). Default: static, markov:0.4,
	// markov:0.8, slow-fading markov (long dwells — the sustained-drift
	// regime where prediction pays), and handoff (mobility outages).
	Networks []SweepNetwork
	// Allocators are the ByName specs of the allocator grid. Default:
	// the four static strategies plus the canonical bandit and
	// gradient learners.
	Allocators []string
	// Devices shapes the contending fleet of the allocator grid
	// (default HeterogeneousSpecs(8) — the regime where an equal split
	// provably starves the heavy device).
	Devices []AllocDeviceSpec
	// Policies are the PolicyByName specs of the policy grid. Default:
	// proposed (no delay), delayed:L (the stock controller across a
	// delayed control loop), and predictive-delayed:L (the
	// predictive-display policy under the same delay), with L =
	// learn.DefaultLag slots.
	Policies []string
	// FleetSessions, when positive, runs the policy grid on the fleet
	// backend with that population per cell; otherwise it runs on the
	// pool backend. (The allocator grid always runs on the pool
	// backend — fleet sessions are independent and have no shared
	// budget to split.)
	FleetSessions int
	// Slots is the cell horizon (default twice the scenario horizon,
	// matching the allocator ablation).
	Slots int
	// Workers bounds cell concurrency; reports are byte-identical for
	// every value.
	Workers int
	// Seed decorrelates the grid (default the scenario seed).
	Seed uint64
	// Metrics/Recorder opt the sweep into telemetry; learned cells
	// contribute the learn_* series.
	Metrics  *obs.Registry
	Recorder *obs.FlightRecorder
}

func (p LearnSweepParams) withDefaults(s *Scenario) LearnSweepParams {
	if len(p.Networks) == 0 {
		p.Networks = []SweepNetwork{
			NetworkStatic(), NetworkMarkov(0.4), NetworkMarkov(0.8),
			NetworkMarkovDwell(0.8, 128), NetworkHandoff(),
		}
	}
	if len(p.Allocators) == 0 {
		p.Allocators = []string{
			"equal", "proportional", "maxweight", "wrr",
			fmt.Sprintf("bandit:%d", learn.DefaultArms),
			"gradient:0.2",
		}
	}
	if len(p.Devices) == 0 {
		p.Devices = HeterogeneousSpecs(8)
	}
	if len(p.Policies) == 0 {
		p.Policies = []string{
			"proposed",
			fmt.Sprintf("delayed:%d", learn.DefaultLag),
			fmt.Sprintf("predictive-delayed:%d", learn.DefaultLag),
		}
	}
	if p.Slots <= 0 {
		p.Slots = 2 * s.Params.Slots
	}
	if p.Seed == 0 {
		p.Seed = s.Params.Seed
	}
	return p
}

// LearnRegime names the winner of one network regime: the grid column
// (network shape) and the strategy ranking best there. Ranking is
// stability-first, mirroring the paper's objective (maximize utility
// subject to every queue being stable): fewer diverging trajectories
// wins outright, and the drift-plus-penalty score V·U − Q̄ breaks ties
// among equally-stable strategies — so a strategy can never buy a
// regime by starving one device while the others render deep.
type LearnRegime struct {
	// Net labels the network point.
	Net string `json:"net"`
	// Winner is the best-ranked strategy.
	Winner string `json:"winner"`
	// Score is the winner's drift-plus-penalty score V·U − Q̄.
	Score float64 `json:"score"`
	// RunnerUp is the second-best strategy and its score.
	RunnerUp      string  `json:"runner_up,omitempty"`
	RunnerUpScore float64 `json:"runner_up_score,omitempty"`
	// Scores maps every strategy on this column to its score, and
	// Diverging to its diverging-trajectory count (both JSON-encoded
	// with sorted keys, so reports stay byte-stable).
	Scores    map[string]float64 `json:"scores"`
	Diverging map[string]int64   `json:"diverging"`
}

// LearnSweepReport is the learning ablation's seed-pinned outcome: the
// two raw sweep reports plus the per-regime winners derived from them.
type LearnSweepReport struct {
	// Seed echoes the grid seed; Lag the default policy grid's control
	// delay (learn.DefaultLag); V the calibrated tradeoff knob the scores
	// weigh utility with.
	Seed uint64  `json:"seed"`
	Lag  int     `json:"lag"`
	V    float64 `json:"v"`
	// Alloc is the allocator × network grid (pool backend: a
	// heterogeneous fleet contending for one budget per cell).
	Alloc *SweepReport `json:"alloc"`
	// Policy is the policy × network grid (pool or fleet backend).
	Policy *SweepReport `json:"policy"`
	// AllocRegimes and PolicyRegimes name each network column's winner
	// by drift-plus-penalty score.
	AllocRegimes  []LearnRegime `json:"alloc_regimes"`
	PolicyRegimes []LearnRegime `json:"policy_regimes"`
}

// Score returns the drift-plus-penalty score of a sweep row: V times
// its utility minus its time-average backlog — the per-slot objective
// the paper's controller maximizes, so "winning a regime" means
// exactly what the Lyapunov analysis optimizes (a diverging backlog
// sinks the score no matter how pretty the utility).
func (r *LearnSweepReport) Score(utility, backlog float64) float64 {
	return r.V*utility - backlog
}

// regimes derives each network column's winner from a grid whose rows
// are ordered strategy-major (strategy axis first, network axis last,
// so the network varies fastest). Ranking is stability-first: fewer
// diverging trajectories, then higher drift-plus-penalty score.
func (r *LearnSweepReport) regimes(rep *SweepReport, strategies, nets []string) []LearnRegime {
	out := make([]LearnRegime, len(nets))
	for ni, net := range nets {
		reg := LearnRegime{
			Net:       net,
			Scores:    make(map[string]float64, len(strategies)),
			Diverging: make(map[string]int64, len(strategies)),
		}
		var winDiv, upDiv int64
		haveUp := false
		for si, strat := range strategies {
			row := rep.Rows[si*len(nets)+ni]
			score := r.Score(row.Utility, row.Backlog)
			div := row.Verdicts.Diverging
			reg.Scores[strat] = score
			reg.Diverging[strat] = div
			better := func(d int64, s float64, dRef int64, sRef float64) bool {
				return d < dRef || (d == dRef && s > sRef)
			}
			switch {
			case si == 0 || better(div, score, winDiv, reg.Score):
				if si != 0 {
					reg.RunnerUp, reg.RunnerUpScore, upDiv = reg.Winner, reg.Score, winDiv
					haveUp = true
				}
				reg.Winner, reg.Score, winDiv = strat, score, div
			case !haveUp || better(div, score, upDiv, reg.RunnerUpScore):
				reg.RunnerUp, reg.RunnerUpScore, upDiv = strat, score, div
				haveUp = true
			}
		}
		out[ni] = reg
	}
	return out
}

// LearnSweep runs the learning-layer ablation: the learned allocators
// against the Lyapunov-per-device fleet under every static strategy
// (allocator × network volatility, pool backend), and the
// predictive-display policy against the stock controller with and
// without control-loop delay (policy × network volatility, pool or
// fleet backend). The report is byte-identical per seed at any worker
// count, and its regime tables name the winner of every network column
// by the drift-plus-penalty score V·U − Q̄.
func LearnSweep(ctx context.Context, s *Scenario, params LearnSweepParams) (*LearnSweepReport, error) {
	p := params.withDefaults(s)
	nets := p.Networks
	netNames := make([]string, len(nets))
	for i, n := range nets {
		netNames[i] = n.Name
	}
	rep := &LearnSweepReport{Seed: p.Seed, Lag: learn.DefaultLag, V: s.V}

	// Allocator grid: a heterogeneous fleet contends for one shared
	// budget per cell; the allocator axis must come first so each
	// network column sits contiguously under every strategy.
	aw, err := NewSweep(s, AxisAllocator(p.Allocators...), AxisNetwork(nets...))
	if err != nil {
		return nil, err
	}
	aw.Workers = p.Workers
	aw.Slots = p.Slots
	aw.Seed = p.Seed
	aw.Metrics = p.Metrics
	aw.Recorder = p.Recorder
	aw.Configure(func(c *SweepCell) error {
		c.Devices = p.Devices
		return nil
	})
	if rep.Alloc, err = aw.Run(ctx); err != nil {
		return nil, fmt.Errorf("experiments: learn sweep allocator grid: %w", err)
	}
	rep.AllocRegimes = rep.regimes(rep.Alloc, p.Allocators, netNames)

	// Policy grid: single-session cells (one per policy × network),
	// on the pool backend or a fleet population per cell.
	specs, err := policySpecs(p.Policies...)
	if err != nil {
		return nil, err
	}
	pw, err := NewSweep(s, AxisPolicy(specs...), AxisNetwork(nets...))
	if err != nil {
		return nil, err
	}
	pw.Workers = p.Workers
	pw.Slots = p.Slots
	pw.Seed = p.Seed
	pw.Metrics = p.Metrics
	pw.Recorder = p.Recorder
	if p.FleetSessions > 0 {
		pw.Backend = BackendFleet(p.FleetSessions)
	}
	if rep.Policy, err = pw.Run(ctx); err != nil {
		return nil, fmt.Errorf("experiments: learn sweep policy grid: %w", err)
	}
	rep.PolicyRegimes = rep.regimes(rep.Policy, p.Policies, netNames)
	return rep, nil
}

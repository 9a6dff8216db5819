package qarv

import (
	"context"
	"errors"
	"fmt"

	"qarv/internal/experiments"
	"qarv/internal/geom"
	"qarv/internal/sim"
)

// SessionKind identifies which scenario a Session drives.
type SessionKind int

// Session kinds, inferred from the options: WithOffload selects
// KindOffload, WithDevices selects KindMulti, anything else is a
// single-device KindSim run.
const (
	KindSim SessionKind = iota
	KindMulti
	KindOffload
)

// Session construction errors.
var (
	// ErrOptionConflict reports options that cannot be combined (e.g.
	// WithPolicy alongside WithDevices, which carry their own policies).
	ErrOptionConflict = errors.New("qarv: conflicting session options")
	// ErrAllocatorWithoutDevices reports WithAllocator on a session that
	// has no shared budget to split.
	ErrAllocatorWithoutDevices = errors.New("qarv: WithAllocator requires WithDevices")
)

// Report is the unified result of any session run. Exactly one of Sim,
// Multi, Offload is non-nil, matching Kind; the summary fields are
// always populated so sweeps can compare runs without switching on Kind.
type Report struct {
	Kind SessionKind

	Sim     *SimResult     // KindSim runs
	Multi   *MultiResult   // KindMulti runs
	Offload *OffloadResult // KindOffload runs

	// TimeAvgUtility is the run's time-average quality: the objective (1)
	// for sim runs, the fleet mean for multi runs, 0 for offload runs
	// (which track delivery latency instead).
	TimeAvgUtility float64
	// TimeAvgBacklog is the run's time-average backlog: constraint (2)
	// for sim runs, the fleet total for multi runs, and the mean uplink
	// queue in bytes for offload runs.
	TimeAvgBacklog float64
	// Verdict classifies the backlog trajectory (the summed trajectory
	// for multi runs); zero when the run is too short to classify.
	Verdict Verdict
}

// Session is the single entry point for every QARV scenario: a validated,
// immutable configuration assembled by NewSession from functional options
// and driven by Run. The same Session value may be Run repeatedly, but
// note that stateful policies (the threshold and random baselines) carry
// state across runs — build one Session per run for reproducible sweeps.
type Session struct {
	kind    SessionKind
	simCfg  sim.Config
	multi   sim.MultiConfig
	offload experiments.OffloadParams
}

// NewSession validates the options into a runnable Session. A Scenario
// (WithScenario) supplies defaults — controller, cost, utility, constant
// service at the calibrated rate, one-frame-per-slot arrivals, and the
// horizon — each overridable by the matching option. Structural
// validation happens here, once; sim and multi sessions cannot fail on
// configuration at Run. Offload sessions can still fail at Run on
// conditions only discoverable against the measured capture (e.g. a
// fixed bandwidth at or above bytes(d_max), which V-calibration
// rejects).
func NewSession(opts ...Option) (*Session, error) {
	var c sessionConfig
	for _, o := range opts {
		o(&c)
	}
	obs := sim.Join(c.observers...)

	if c.content != nil {
		if c.offload != nil {
			return nil, fmt.Errorf("%w: offload sessions measure their own capture; WithContent applies to sim and multi sessions", ErrOptionConflict)
		}
		// Recalibrate the session scenario over the measured profile: the
		// supplied scenario (if any) keeps its control-side knobs, while
		// cost, utility, service rate, V, and the candidate depths come
		// from the profile's measured ladders.
		var params ScenarioParams
		if c.scenario != nil {
			params = c.scenario.Params
			params.Depths = nil
		}
		scn, err := experiments.NewContentScenario(params, c.content)
		if err != nil {
			return nil, err
		}
		c.scenario = scn
	}

	switch {
	case c.offload != nil:
		if c.scenario != nil || c.policy != nil || c.arrivals != nil || c.service != nil ||
			c.cost != nil || c.utility != nil || c.maxSet || len(c.devices) > 0 {
			return nil, fmt.Errorf("%w: offload sessions configure capture and control through OffloadParams (WithSlots, WithSeed, WithObserver still apply)", ErrOptionConflict)
		}
		if c.allocator != nil {
			return nil, ErrAllocatorWithoutDevices
		}
		p := *c.offload
		if c.slotsSet {
			if c.slots <= 0 {
				return nil, fmt.Errorf("%w: %d", sim.ErrBadSlots, c.slots)
			}
			p.Slots = c.slots
		}
		p.Observer = sim.Join(p.Observer, obs)
		if c.metrics != nil {
			p.Metrics = c.metrics
		}
		if c.recorder != nil {
			p.Recorder = c.recorder
		}
		if c.seedSet {
			// One seed drives capture and link alike; a nonzero
			// OffloadParams.Link.Seed still wins for the link RNG.
			p.Seed = c.seed
		}
		if err := p.Validate(); err != nil {
			return nil, err
		}
		return &Session{kind: KindOffload, offload: p}, nil

	case len(c.devices) > 0:
		if c.policy != nil || c.arrivals != nil || c.cost != nil || c.utility != nil || c.maxSet {
			return nil, fmt.Errorf("%w: multi-device sessions configure policy, cost, utility, and arrivals per Device", ErrOptionConflict)
		}
		cfg := sim.MultiConfig{
			Devices:   c.devices,
			Service:   c.service,
			Allocator: c.allocator,
			Slots:     c.slots,
			Observer:  obs,
			Metrics:   c.metrics,
			Recorder:  c.recorder,
		}
		if c.scenario != nil {
			if cfg.Service == nil {
				// The conventional budget: N× the calibrated single-device
				// rate, split equally (information-free sharing).
				cfg.Service = &ConstantService{Rate: float64(len(c.devices)) * c.scenario.ServiceRate}
			}
			if !c.slotsSet {
				cfg.Slots = c.scenario.Params.Slots
			}
		}
		if c.seedSet {
			rng := geom.NewRNG(c.seed)
			reseed(rng, cfg.Service)
			for _, dev := range cfg.Devices {
				reseed(rng, dev.Policy, dev.Arrivals)
			}
		}
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		return &Session{kind: KindMulti, multi: cfg}, nil

	default:
		if c.allocator != nil {
			return nil, ErrAllocatorWithoutDevices
		}
		cfg := sim.Config{
			Policy:     c.policy,
			Arrivals:   c.arrivals,
			Cost:       c.cost,
			Utility:    c.utility,
			Service:    c.service,
			Slots:      c.slots,
			MaxBacklog: c.maxBacklog,
			Observer:   obs,
			Metrics:    c.metrics,
			Recorder:   c.recorder,
		}
		if c.scenario != nil {
			base := c.scenario.SimConfig(nil)
			if cfg.Policy == nil {
				ctrl, err := c.scenario.Controller()
				if err != nil {
					return nil, err
				}
				cfg.Policy = ctrl
			}
			if cfg.Arrivals == nil {
				cfg.Arrivals = base.Arrivals
			}
			if cfg.Cost == nil {
				cfg.Cost = base.Cost
			}
			if cfg.Utility == nil {
				cfg.Utility = base.Utility
			}
			if cfg.Service == nil {
				cfg.Service = base.Service
			}
			if !c.slotsSet {
				cfg.Slots = base.Slots
			}
		}
		if c.seedSet {
			reseed(geom.NewRNG(c.seed), cfg.Policy, cfg.Arrivals, cfg.Service)
		}
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		return &Session{kind: KindSim, simCfg: cfg}, nil
	}
}

// reseeder is implemented by stochastic components that can have their
// RNG replaced (PoissonArrivals, NoisyService, the random policy, …).
type reseeder interface{ Reseed(*geom.RNG) }

// reseed hands each reseedable component an independent child stream of
// rng, in argument order. Components that don't implement Reseed (or are
// nil) are skipped without consuming a stream, so adding determinism to
// one component never perturbs another's draws.
func reseed(rng *geom.RNG, components ...any) {
	for _, c := range components {
		if r, ok := c.(reseeder); ok && r != nil {
			r.Reseed(rng.Split())
		}
	}
}

// Run executes the session. Cancellation of ctx is honored down through
// the slot loops: even a million-slot run aborts within a poll stride
// (queueing.PollEvery slots) of the cancel, returning the context's
// error wrapped with the slot it stopped at.
func (s *Session) Run(ctx context.Context) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	switch s.kind {
	case KindOffload:
		res, err := experiments.OffloadContext(ctx, s.offload)
		if err != nil {
			return nil, err
		}
		return offloadReport(res), nil
	case KindMulti:
		res, err := sim.RunMultiContext(ctx, s.multi)
		if err != nil {
			return nil, err
		}
		return multiReport(res), nil
	default:
		res, err := sim.RunContext(ctx, s.simCfg)
		if err != nil {
			return nil, err
		}
		return simReport(res), nil
	}
}

func simReport(res *sim.Result) *Report {
	rep := &Report{
		Kind:           KindSim,
		Sim:            res,
		TimeAvgUtility: res.TimeAvgUtility,
		TimeAvgBacklog: res.TimeAvgBacklog,
	}
	if v, err := res.Verdict(); err == nil {
		rep.Verdict = v
	}
	return rep
}

func multiReport(res *sim.MultiResult) *Report {
	rep := &Report{
		Kind:           KindMulti,
		Multi:          res,
		TimeAvgUtility: res.MeanTimeAvgUtility,
		TimeAvgBacklog: res.TotalTimeAvgBacklog,
	}
	if v, err := res.Verdict(); err == nil {
		rep.Verdict = v
	}
	return rep
}

func offloadReport(res *experiments.OffloadResult) *Report {
	rep := &Report{
		Kind:    KindOffload,
		Offload: res,
		Verdict: res.Verdict,
	}
	var sum float64
	for _, q := range res.BacklogBytes {
		sum += q
	}
	if n := len(res.BacklogBytes); n > 0 {
		rep.TimeAvgBacklog = sum / float64(n)
	}
	return rep
}

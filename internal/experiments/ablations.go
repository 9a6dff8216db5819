package experiments

import (
	"context"

	"qarv/internal/delay"
	"qarv/internal/geom"
	"qarv/internal/policy"
	"qarv/internal/queueing"
	"qarv/internal/sim"
)

// ---------------------------------------------------------------------------
// ABL-MD — the fully distributed claim under shared service
// ---------------------------------------------------------------------------

// MultiDeviceRow summarizes one device of the distributed run.
type MultiDeviceRow struct {
	Device         int
	TimeAvgUtility float64
	TimeAvgBacklog float64
	Verdict        string
	// MeanSojourn is the device's average per-frame delay in slots (the
	// frame accounting multi runs now share with single runs).
	MeanSojourn float64
}

// MultiDeviceContext runs n controllers sharing n× the single-device
// service budget, each acting only on its own backlog (no side
// information, §II), under a cancelable context. Zero n/slots take 4
// devices and twice the scenario horizon.
func MultiDeviceContext(ctx context.Context, s *Scenario, n, slots int) ([]MultiDeviceRow, error) {
	if n <= 0 {
		n = 4
	}
	if slots <= 0 {
		slots = 2 * s.Params.Slots
	}
	devices := make([]sim.Device, n)
	for i := range devices {
		ctrl, err := s.Controller()
		if err != nil {
			return nil, err
		}
		devices[i] = sim.Device{
			Policy:   ctrl,
			Cost:     s.Cost,
			Utility:  s.Utility,
			Arrivals: &queueing.DeterministicArrivals{PerSlot: 1},
		}
	}
	res, err := sim.RunMultiContext(ctx, sim.MultiConfig{
		Devices: devices,
		Service: &delay.ConstantService{Rate: s.ServiceRate * float64(n)},
		Slots:   slots,
	})
	if err != nil {
		return nil, err
	}
	rows := make([]MultiDeviceRow, n)
	for i, r := range res.PerDevice {
		verdict, err := r.Verdict()
		if err != nil {
			return nil, err
		}
		rows[i] = MultiDeviceRow{
			Device:         i,
			TimeAvgUtility: r.TimeAvgUtility,
			TimeAvgBacklog: r.TimeAvgBacklog,
			Verdict:        verdict.String(),
			MeanSojourn:    r.MeanSojourn,
		}
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// ABL-BASE — extended baseline comparison (beyond the paper's two)
// ---------------------------------------------------------------------------

// BaselineRow summarizes one policy in the extended comparison.
type BaselineRow struct {
	Policy         string
	TimeAvgUtility float64
	TimeAvgBacklog float64
	MaxBacklog     float64
	Verdict        string
}

// BaselinesContext compares the Proposed controller against all
// reference policies on the calibrated scenario, under a cancelable
// context. Zero slots/seed take twice the scenario horizon and seed 7.
func BaselinesContext(ctx context.Context, s *Scenario, slots int, seed uint64) ([]BaselineRow, error) {
	if slots <= 0 {
		slots = 2 * s.Params.Slots
	}
	if seed == 0 {
		seed = 7
	}
	ctrl, err := s.Controller()
	if err != nil {
		return nil, err
	}
	maxP, err := policy.NewMaxDepth(s.Params.Depths)
	if err != nil {
		return nil, err
	}
	minP, err := policy.NewMinDepth(s.Params.Depths)
	if err != nil {
		return nil, err
	}
	randP, err := policy.NewRandom(s.Params.Depths, geom.NewRNG(seed))
	if err != nil {
		return nil, err
	}
	thrP, err := policy.NewThreshold(s.Params.Depths,
		0.5*ctrl.SwitchBacklog(), ctrl.SwitchBacklog())
	if err != nil {
		return nil, err
	}
	oracleP, err := policy.BestFixed(s.Params.Depths, s.Cost, s.ServiceRate)
	if err != nil {
		return nil, err
	}
	policies := []policy.Policy{ctrl, maxP, minP, randP, thrP, oracleP}
	results, err := sim.CompareContext(ctx, s.SimConfig(nil), policies)
	if err != nil {
		return nil, err
	}
	rows := make([]BaselineRow, len(results))
	for i, r := range results {
		verdict, err := r.Verdict()
		if err != nil {
			return nil, err
		}
		rows[i] = BaselineRow{
			Policy:         r.PolicyName,
			TimeAvgUtility: r.TimeAvgUtility,
			TimeAvgBacklog: r.TimeAvgBacklog,
			MaxBacklog:     r.MaxBacklog,
			Verdict:        verdict.String(),
		}
	}
	return rows, nil
}

package experiments

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"qarv/internal/alloc"
	"qarv/internal/core"
	"qarv/internal/delay"
	"qarv/internal/fleet"
	"qarv/internal/geom"
	"qarv/internal/netem"
	"qarv/internal/queueing"
	"qarv/internal/sim"
)

// TestSweepCellsMatchPrimitives checks every cell shape the ablations
// use against a direct run of the primitive underneath it: each sweep
// cell's full backend result must equal the sim.RunContext,
// sim.RunMultiContext, or fleet.RunContext result of the same
// configuration built by hand.
func TestSweepCellsMatchPrimitives(t *testing.T) {
	s := sharedScenario(t)
	ctx := context.Background()
	const (
		poolSlots  = 800
		fleetSlots = 100
		sessions   = 16
		seed       = 5
	)
	vFactors := []float64{0.5, 2}
	rateFractions := []float64{0.8, 1.1}
	models := utilityModels(t, s)
	volatilities := []float64{0, 0.6}
	specs := HeterogeneousSpecs(3)
	budget := 1.25 * FleetMinDemand(s, specs)
	allocators := []string{"equal", "proportional", "maxweight"}

	runSim := func(cfg sim.Config) (any, error) {
		cfg.Slots = poolSlots
		return sim.RunContext(ctx, cfg)
	}
	runFleet := func(prof fleet.Profile) (any, error) {
		rep, err := fleet.RunContext(ctx, fleet.Spec{
			Sessions: sessions,
			Slots:    fleetSlots,
			Seed:     seed,
			Profiles: []fleet.Profile{prof},
		})
		return wallClockFree(rep), err
	}
	poisson := func(rng *geom.RNG) queueing.ArrivalProcess {
		return &queueing.PoissonArrivals{Mean: 1, RNG: rng}
	}
	noisy := func(rng *geom.RNG) delay.ServiceProcess {
		return &delay.NoisyService{Mean: s.ServiceRate, Std: 0.05 * s.ServiceRate, RNG: rng}
	}

	cases := []struct {
		name string
		// sweep builds the grid under test.
		sweep func() (*Sweep, error)
		// ref runs cell i directly on the primitive.
		ref func(i int) (any, error)
	}{
		{
			name:  "pool_v",
			sweep: func() (*Sweep, error) { return NewSweep(s, AxisV(vFactors...)) },
			ref: func(i int) (any, error) {
				ctrl, err := s.ControllerWithV(s.V * vFactors[i])
				if err != nil {
					return nil, err
				}
				return runSim(s.SimConfig(ctrl))
			},
		},
		{
			name:  "pool_rate",
			sweep: func() (*Sweep, error) { return NewSweep(s, AxisServiceRate(rateFractions...)) },
			ref: func(i int) (any, error) {
				ctrl, err := s.Controller()
				if err != nil {
					return nil, err
				}
				cfg := s.SimConfig(ctrl)
				cfg.Service = &delay.ConstantService{Rate: s.ServiceRate * rateFractions[i]}
				return runSim(cfg)
			},
		},
		{
			name:  "pool_utility",
			sweep: func() (*Sweep, error) { return NewSweep(s, utilityAxis(models)) },
			ref: func(i int) (any, error) {
				cfg := core.Config{Depths: s.Params.Depths, Utility: models[i], Cost: s.Cost}
				v, err := core.CalibrateV(s.Params.KneeSlot, s.ServiceRate, cfg)
				if err != nil {
					return nil, err
				}
				cfg.V = v
				ctrl, err := core.New(cfg)
				if err != nil {
					return nil, err
				}
				simCfg := s.SimConfig(ctrl)
				simCfg.Utility = models[i]
				return runSim(simCfg)
			},
		},
		{
			name: "fleet_network_markov",
			sweep: func() (*Sweep, error) {
				nets := make([]SweepNetwork, len(volatilities))
				for i, v := range volatilities {
					nets[i] = NetworkMarkov(v)
				}
				sw, err := NewSweep(s, AxisNetwork(nets...))
				if err != nil {
					return nil, err
				}
				sw.Backend = BackendFleet(sessions)
				sw.Slots = fleetSlots
				sw.Configure(func(c *SweepCell) error { c.Seed = seed; return nil })
				return sw, nil
			},
			ref: func(i int) (any, error) {
				v := volatilities[i]
				prof := s.FleetProfile(fmt.Sprintf("markov-v%.2f", v), 1, 1)
				prof.NewService = func(rng *geom.RNG) delay.ServiceProcess {
					return &netem.MarkovBandwidth{
						GoodRate: s.ServiceRate * (1 + v),
						BadRate:  s.ServiceRate * (1 - v),
						PGoodBad: 0.1, PBadGood: 0.1,
						RNG: rng,
					}
				}
				return runFleet(prof)
			},
		},
		{
			name: "fleet_v_stochastic",
			sweep: func() (*Sweep, error) {
				sw, err := NewSweep(s, AxisV(vFactors...))
				if err != nil {
					return nil, err
				}
				sw.Backend = BackendFleet(sessions)
				sw.Slots = fleetSlots
				sw.Configure(func(c *SweepCell) error {
					c.Seed = seed
					c.ProfileName = "proposed"
					c.NewArrivals = func(_ *SweepCell, rng *geom.RNG) queueing.ArrivalProcess { return poisson(rng) }
					c.NewService = func(_ *SweepCell, _ float64, rng *geom.RNG) delay.ServiceProcess { return noisy(rng) }
					return nil
				})
				return sw, nil
			},
			ref: func(i int) (any, error) {
				prof := s.FleetProfile("proposed", 1, vFactors[i])
				prof.NewArrivals = poisson
				prof.NewService = noisy
				return runFleet(prof)
			},
		},
		{
			name: "pool_allocator",
			sweep: func() (*Sweep, error) {
				sw, err := NewSweep(s, AxisAllocator(allocators...))
				if err != nil {
					return nil, err
				}
				sw.Configure(func(c *SweepCell) error {
					c.Devices = specs
					c.Budget = budget
					return nil
				})
				return sw, nil
			},
			ref: func(i int) (any, error) {
				devices, err := fleetDevices(s, specs, false)
				if err != nil {
					return nil, err
				}
				a, err := alloc.ByName(allocators[i])
				if err != nil {
					return nil, err
				}
				return sim.RunMultiContext(ctx, sim.MultiConfig{
					Devices:   devices,
					Service:   &delay.ConstantService{Rate: budget},
					Allocator: a,
					Slots:     poolSlots,
				})
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			sw, err := tc.sweep()
			if err != nil {
				t.Fatal(err)
			}
			if sw.Slots == 0 {
				sw.Slots = poolSlots
			}
			rep, err := sw.Run(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Rows) != sw.Cells() || sw.Cells() < 2 {
				t.Fatalf("rows = %d for %d cells", len(rep.Rows), sw.Cells())
			}
			for i, row := range rep.Rows {
				want, err := tc.ref(i)
				if err != nil {
					t.Fatal(err)
				}
				if got := cellResult(row); !reflect.DeepEqual(got, want) {
					t.Errorf("cell %d (%s): sweep result differs from the direct run:\n got %+v\nwant %+v",
						i, coordKey(row.Coords), got, want)
				}
			}
		})
	}
}

// cellResult returns a row's full backend result in the shape its
// primitive returns it, wall-clock fields zeroed.
func cellResult(row SweepRow) any {
	switch d := row.Detail; {
	case d.Sim != nil:
		return d.Sim
	case d.Multi != nil:
		return d.Multi
	default:
		return wallClockFree(d.Fleet)
	}
}

// wallClockFree zeroes a fleet report's wall-clock fields, the only
// part of it outside the determinism contract.
func wallClockFree(rep *fleet.Report) *fleet.Report {
	if rep != nil {
		rep.Elapsed, rep.DeviceSlotsPerSec = 0, 0
	}
	return rep
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"qarv/internal/alloc"
	"qarv/internal/core"
	"qarv/internal/delay"
	"qarv/internal/experiments"
	"qarv/internal/geom"
	"qarv/internal/queueing"
	"qarv/internal/sim"
)

// sweep-grid: a pool-backend allocator × network grid of shared-budget
// multi-device cells. One operation is one run of the whole grid.
const (
	sweepSamples = 60_000
	// sweepHorizon is every cell's slot count. Pool cells keep each
	// device's per-slot trajectories, so the grid's memory grows with it.
	sweepHorizon = 10_000
	sweepDevices = 8 // experiments.HeterogeneousSpecs' default fleet
)

var (
	sweepAllocators = []string{"equal", "maxweight", "bandit:8", "gradient:0.2"}
	sweepNetworks   = []func() experiments.SweepNetwork{
		experiments.NetworkStatic,
		func() experiments.SweepNetwork { return experiments.NetworkMarkovDwell(0.8, 64) },
		experiments.NetworkHandoff,
	}
)

// setupSweepGrid calibrates the scenario and builds the grid.
func setupSweepGrid(seed uint64) (*experiments.Sweep, error) {
	scn, err := experiments.NewScenario(experiments.ScenarioParams{Samples: sweepSamples, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return newGrid(scn, seed, sweepAllocators, sweepNetworks)
}

// newGrid builds a pool-backend allocator × network sweep over the
// scenario.
func newGrid(scn *experiments.Scenario, seed uint64, allocs []string, nets []func() experiments.SweepNetwork) (*experiments.Sweep, error) {
	ns := make([]experiments.SweepNetwork, len(nets))
	for i, n := range nets {
		ns[i] = n()
	}
	sw, err := experiments.NewSweep(scn, experiments.AxisAllocator(allocs...), experiments.AxisNetwork(ns...))
	if err != nil {
		return nil, err
	}
	sw.Backend = experiments.BackendPool()
	sw.Slots = sweepHorizon
	sw.Seed = seed
	return sw, nil
}

// checkSweepReport verifies one grid report and returns its JSON bytes.
func checkSweepReport(rep *experiments.SweepReport, cells int) ([]byte, []string) {
	var bad []string
	if len(rep.Rows) != cells {
		bad = append(bad, fmt.Sprintf("%d rows, want %d cells", len(rep.Rows), cells))
	}
	for i, r := range rep.Rows {
		v := r.Verdicts
		if r.Cell != i || r.Sessions != sweepDevices || v.Diverging+v.Converged+v.Stabilized+v.Unclassified != sweepDevices {
			bad = append(bad, fmt.Sprintf("row %d: cell %d, %d sessions, verdicts %+v", i, r.Cell, r.Sessions, v))
		}
	}
	b, err := json.Marshal(rep)
	if err != nil {
		bad = append(bad, fmt.Sprintf("encode report: %v", err))
	}
	return b, bad
}

// runSweepGrid is the untraced sweep-grid workload.
func runSweepGrid(rc runConfig) (*outcome, error) {
	sw, setups, err := repeatSetup(func() (*experiments.Sweep, error) { return setupSweepGrid(rc.seed) }, nil)
	if err != nil {
		return nil, err
	}
	sw.Workers = rc.workers
	o := &outcome{setups: setups}
	cells := sw.Cells()
	slotsPerGrid := float64(cells * sweepDevices * sweepHorizon)
	var first []byte
	var rates []float64
	var cpus []time.Duration
	start := clock()
	for len(o.ops) == 0 || clock().Sub(start) < rc.seconds {
		o.attempted++
		t0, c0 := clock(), cpuClock()
		rep, err := sw.Run(context.Background())
		el, cpu := clock().Sub(t0), cpuClock()-c0
		if err != nil {
			o.fail("grid %d: %v", o.attempted, err)
			continue
		}
		o.ops = append(o.ops, el)
		cpus = append(cpus, cpu)
		rates = append(rates, slotsPerGrid/el.Seconds())
		b, bad := checkSweepReport(rep, cells)
		for _, m := range bad {
			o.fail("grid %d: %s", o.attempted, m)
		}
		if first == nil {
			first = b
			fmt.Printf("# sweep-grid: %d cells x %d devices x %d slots = %.0f device-slots per grid, %d workers\n",
				cells, sweepDevices, sweepHorizon, slotsPerGrid, sw.Workers)
		} else if !bytes.Equal(first, b) {
			o.fail("grid %d: report differs from grid 1 under the same seed", o.attempted)
		}
	}
	o.throughput = medianF(rates)
	fmt.Printf("# sweep-grid: median grid %.0f ms wall, %.0f ms CPU\n", ms(median(o.ops)), ms(median(cpus)))
	return o, nil
}

// ---------------------------------------------------------------------------
// Traced pass
// ---------------------------------------------------------------------------

// attributeSweepGrid is the sweep-grid traced pass: scenario
// calibration, the grid untraced, at one worker, and cell by cell under
// spans, then one cell's simulation and its allocator and netem calls
// replayed alone.
func attributeSweepGrid(a *attribution) error {
	const moves = "throughput_per_s, op_p50_ms @ sweep-grid"
	root := a.tr.begin(-1, "perfbench", "sweep-grid")
	defer a.tr.end(root, 1)

	var scn *experiments.Scenario
	var scnTimes []time.Duration
	for i := 0; i < setupRepeats; i++ {
		d, err := a.tr.call(root, "experiments", "NewScenario", 1, func() error {
			var err error
			scn, err = experiments.NewScenario(experiments.ScenarioParams{Samples: sweepSamples, Seed: a.rc.seed})
			return err
		})
		if err != nil {
			return err
		}
		scnTimes = append(scnTimes, d)
	}
	a.add("experiments.scenario_s", median(scnTimes).Seconds(), "s", "setup_s @ fleet-mix, sweep-grid")

	sw, err := newGrid(scn, a.rc.seed, sweepAllocators, sweepNetworks)
	if err != nil {
		return err
	}
	cells := sw.Cells()
	sw.Workers = a.rc.workers
	t0 := clock()
	repN, err := sw.Run(context.Background())
	untraced := clock().Sub(t0)
	if err != nil {
		return err
	}
	bytesN, bad := checkSweepReport(repN, cells)
	a.check(len(bad) == 0, "sweep-grid: %v", bad)
	sw.Workers = 1
	rep1, err := sw.Run(context.Background())
	if err != nil {
		return err
	}
	bytes1, _ := checkSweepReport(rep1, cells)
	a.check(bytes.Equal(bytesN, bytes1), "sweep-grid: report at %d workers differs from the workers=1 report", a.rc.workers)

	// The grid cell by cell: each cell a one-cell sweep pinned to the
	// grid's cell seed, on the same number of workers.
	cellTimes := make([]time.Duration, cells)
	rows := make([]*experiments.SweepRow, cells)
	errs := make([]error, cells)
	grid := a.tr.begin(root, "experiments", "grid")
	next := make(chan int, cells) // holds every cell index up front
	for i := 0; i < cells; i++ {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < a.rc.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range next {
				idx := idx
				cellTimes[idx], errs[idx] = a.tr.call(grid, "experiments", "Sweep.Run(cell)", 1, func() error {
					row, err := runOneCell(scn, a.rc.seed, idx)
					rows[idx] = row
					return err
				})
			}
		}()
	}
	wg.Wait()
	traced := a.tr.end(grid, int64(cells))
	for i := 0; i < cells; i++ {
		if errs[i] != nil {
			return fmt.Errorf("cell %d: %w", i, errs[i])
		}
		row := *rows[i]
		row.Cell = i
		got, err := json.Marshal(row)
		if err != nil {
			return err
		}
		want, err := json.Marshal(repN.Rows[i])
		if err != nil {
			return err
		}
		a.check(bytes.Equal(got, want), "sweep-grid: cell %d run alone differs from its grid row", i)
	}
	cellSecs := make([]float64, cells)
	for i, d := range cellTimes {
		cellSecs[i] = d.Seconds()
	}
	a.add("experiments.cell_s.p50", medianF(cellSecs), "s", moves)
	a.add("experiments.cell_s.max", quantileF(cellSecs, 1), "s", moves+" (the slowest cell bounds the grid)")
	a.add("obs.trace_overhead_ratio.sweep-grid", traced.Seconds()/untraced.Seconds(), "ratio", "tracing cost @ sweep-grid")

	return replayCell(a, root, scn, repN.Rows[0])
}

// runOneCell runs grid cell idx as a one-cell sweep with the grid's cell
// seed.
func runOneCell(scn *experiments.Scenario, seed uint64, idx int) (*experiments.SweepRow, error) {
	nets := len(sweepNetworks)
	sw, err := newGrid(scn, seed, sweepAllocators[idx/nets:idx/nets+1], sweepNetworks[idx%nets:idx%nets+1])
	if err != nil {
		return nil, err
	}
	sw.Configure(func(c *experiments.SweepCell) error {
		c.Seed = experiments.CellSeed(seed, idx)
		return nil
	})
	sw.Workers = 1
	rep, err := sw.Run(context.Background())
	if err != nil {
		return nil, err
	}
	return &rep.Rows[0], nil
}

// replayCell runs grid cell 0 (equal split, static network) directly
// through sim.RunMultiContext, checks it against the grid's row, then
// replays the allocators' and network processes' per-slot calls over its
// trajectories.
func replayCell(a *attribution, root int, scn *experiments.Scenario, row0 experiments.SweepRow) error {
	const moves = "throughput_per_s, op_p50_ms @ sweep-grid"
	specs := experiments.HeterogeneousSpecs(sweepDevices)
	budget := 1.25 * experiments.FleetMinDemand(scn, specs)
	devices := make([]sim.Device, len(specs))
	for i, spec := range specs {
		cost, err := delay.NewPointCostModel(scn.Profile, spec.CostScale, 0, 0)
		if err != nil {
			return err
		}
		ctrl, err := core.New(core.Config{V: scn.V, Depths: scn.Params.Depths, Utility: scn.Utility, Cost: cost})
		if err != nil {
			return err
		}
		devices[i] = sim.Device{
			Policy: ctrl, Cost: cost, Utility: scn.Utility,
			Arrivals: &queueing.DeterministicArrivals{PerSlot: spec.ArrivalsPerSlot},
		}
	}
	equal, err := alloc.ByName("equal")
	if err != nil {
		return err
	}
	var res *sim.MultiResult
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d, err := a.tr.call(root, "sim", "RunMultiContext", 1, func() error {
		var err error
		res, err = sim.RunMultiContext(context.Background(), sim.MultiConfig{
			Devices:   devices,
			Service:   &delay.ConstantService{Rate: budget},
			Allocator: equal,
			Slots:     sweepHorizon,
		})
		return err
	})
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	a.check(res.MeanTimeAvgUtility == row0.Utility && res.TotalTimeAvgBacklog == row0.Backlog,
		"sweep-grid: sim.RunMultiContext of cell 0 alone differs from its grid row")
	a.add("sim.multi_device_slots_per_s", float64(sweepDevices*sweepHorizon)/d.Seconds(), "1/s", moves)
	a.add("sim.bytes_per_cell", float64(after.TotalAlloc-before.TotalAlloc), "bytes", "peak_rss_mb @ sweep-grid")

	// Each slot's allocator inputs from the cell's trajectories: backlogs
	// at the start of the slot, realized utilities, and end-of-slot
	// backlogs.
	n := len(res.PerDevice)
	startQ := make([][]float64, sweepHorizon)
	utils := make([][]float64, sweepHorizon)
	endQ := make([][]float64, sweepHorizon)
	for t := range startQ {
		startQ[t], utils[t], endQ[t] = make([]float64, n), make([]float64, n), make([]float64, n)
		for i, r := range res.PerDevice {
			startQ[t][i] = r.Backlog[t]
			utils[t][i] = r.Utility[t]
			endQ[t][i] = r.FinalBacklog
			if t+1 < len(r.Backlog) {
				endQ[t][i] = r.Backlog[t+1]
			}
		}
	}
	shares := make([]float64, n)
	for _, name := range sweepAllocators {
		al, err := alloc.ByName(name)
		if err != nil {
			return err
		}
		if r, ok := al.(interface{ Reseed(*geom.RNG) }); ok {
			r.Reseed(geom.NewRNG(a.rc.seed))
		}
		learner, _ := al.(alloc.Learner)
		layer, metricName := "alloc", "alloc.allocate_ns."+name
		if learner != nil {
			layer, metricName = "learn", "learn.allocate_learn_ns."+strings.ReplaceAll(name, ":", "-")
		}
		d, _ := a.tr.call(root, layer, al.Name()+".Allocate", sweepHorizon, func() error {
			for t := range startQ {
				al.Allocate(t, budget, startQ[t], shares)
				if learner != nil {
					learner.Learn(t, utils[t], endQ[t])
				}
			}
			sinkFloat = shares[0]
			return nil
		})
		a.add(metricName, float64(d.Nanoseconds())/sweepHorizon, "ns", moves)
	}

	for _, net := range []struct {
		name string
		make func() experiments.SweepNetwork
	}{{"markov", sweepNetworks[1]}, {"handoff", sweepNetworks[2]}} {
		proc := net.make().New(budget, geom.NewRNG(a.rc.seed))
		d, _ := a.tr.call(root, "netem", net.name+".Service", sweepHorizon, func() error {
			acc := 0.0
			for t := range startQ {
				acc += proc.Service(t)
			}
			sinkFloat = acc
			return nil
		})
		a.add("netem.service_ns."+net.name, float64(d.Nanoseconds())/sweepHorizon, "ns", moves)
	}
	return nil
}

package experiments

// The declarative sweep engine: one experiment surface over single
// sessions and fleets. Every ablation in this package is a cross-product
// of axes (V, arrival rate, policy, allocator, network shape, horizon)
// evaluated over a calibrated Scenario; the engine expresses that
// directly. NewSweep crosses typed axes into a grid of cells, resolves
// each cell through the same scenario-default resolution the Session
// builder uses (controller at the calibrated V, one-frame-per-slot
// arrivals, constant service at the calibrated rate — each overridable
// per axis), and executes the grid concurrently on a pluggable backend:
// the in-process pool for single-trajectory and shared-budget cells, the
// fleet engine for population-scale cells. Per-cell seed derivation
// (CellSeed) makes every report byte-identical regardless of worker
// count.

import (
	"context"
	"errors"
	"fmt"

	"qarv/internal/alloc"
	"qarv/internal/core"
	"qarv/internal/delay"
	"qarv/internal/fleet"
	"qarv/internal/geom"
	"qarv/internal/obs"
	"qarv/internal/policy"
	"qarv/internal/quality"
	"qarv/internal/queueing"
	"qarv/internal/sim"
	"qarv/internal/stats"
	"qarv/internal/trace"
)

// SweepCell is the mutable configuration one grid point is built from.
// The engine seeds it with the sweep defaults (calibrated scenario,
// VFactor 1, ServiceFraction 1, derived Seed), then applies the sweep's
// Configure hooks and every axis point's Apply in axis order; the
// backend resolves the result into a runnable cell.
type SweepCell struct {
	// Scenario is the calibrated setup every cell starts from.
	Scenario *Scenario

	// VFactor scales the calibrated V (default 1). NewPolicy and
	// RecalibrateV override it, so setting it beside either fails the
	// grid with ErrSweepIgnoredV.
	VFactor float64
	// Utility overrides the scenario's utility model for both control
	// and measurement.
	Utility quality.UtilityModel
	// RecalibrateV recomputes V for the cell's utility model and service
	// rate so knees stay comparable across models (the utility-model
	// ablation). NewPolicy overrides it (ErrSweepIgnoredV).
	RecalibrateV bool
	// NewPolicy overrides the proposed controller entirely. The RNG is a
	// dedicated child stream of the cell seed (fleet cells get one per
	// session).
	NewPolicy func(c *SweepCell, rng *geom.RNG) (policy.Policy, error)

	// ArrivalRate switches arrivals from the paper's one-frame-per-slot
	// process to Poisson offered load at this mean (seeded from the cell
	// seed). Zero keeps deterministic arrivals.
	ArrivalRate float64
	// NewArrivals overrides the arrival process entirely (wins over
	// ArrivalRate).
	NewArrivals func(c *SweepCell, rng *geom.RNG) queueing.ArrivalProcess

	// ServiceFraction scales the cell's base capacity — the calibrated
	// service rate for sim and fleet cells, the shared budget for
	// allocator cells (default 1).
	ServiceFraction float64
	// NewService overrides the service process; base is the cell's
	// scaled base capacity.
	NewService func(c *SweepCell, base float64, rng *geom.RNG) delay.ServiceProcess

	// NewAllocator switches the cell (pool backend only) to a
	// shared-budget multi-device run over Devices: the heterogeneous
	// fleet of Devices (default HeterogeneousSpecs(8)) contends for
	// Budget (default 1.25 × FleetMinDemand), split per slot by the
	// allocator. Built per cell so stateful allocators never leak
	// across cells.
	NewAllocator func() (alloc.Allocator, error)
	// Devices shapes the allocator cell's fleet.
	Devices []AllocDeviceSpec
	// Budget fixes the allocator cell's total per-slot budget.
	Budget float64

	// Slots overrides the cell horizon (0 takes Sweep.Slots, then the
	// scenario horizon).
	Slots int
	// Seed drives every stochastic component of the cell. The engine
	// derives it as CellSeed(Sweep.Seed, cell index) — decorrelated
	// across cells, independent of worker count — before Configure and
	// Apply run, either of which may override it (pinning every cell to
	// one seed makes each point of a fleet grid replay the same
	// population).
	Seed uint64
	// ProfileName labels the fleet profile of fleet-backend cells
	// (default: the cell's coordinate labels joined by "/").
	ProfileName string

	// metrics is the cell's private telemetry registry, created by Run
	// from Sweep.Metrics (same accuracy, so the final merge can never
	// mismatch); nil when the sweep records no metrics. recorder is the
	// sweep-wide flight recorder shared by every cell (concurrency-safe;
	// traces are diagnostics, not part of the determinism contract).
	metrics  *obs.Registry
	recorder *obs.FlightRecorder
}

// baseRate is the cell's scaled base capacity for sim and fleet cells.
func (c *SweepCell) baseRate() float64 {
	return c.Scenario.ServiceRate * c.ServiceFraction
}

// utility resolves the cell's measurement/control utility model.
func (c *SweepCell) utility() quality.UtilityModel {
	if c.Utility != nil {
		return c.Utility
	}
	return c.Scenario.Utility
}

// buildPolicy resolves the cell's depth policy: the override factory
// when set, otherwise the proposed drift-plus-penalty controller at
// VFactor × the calibrated V (recalibrated for the cell's utility and
// base rate when RecalibrateV is set).
func (c *SweepCell) buildPolicy(rng *geom.RNG) (policy.Policy, error) {
	if c.NewPolicy != nil {
		return c.NewPolicy(c, rng)
	}
	s := c.Scenario
	cfg := core.Config{Depths: s.Params.Depths, Utility: c.utility(), Cost: s.Cost}
	if c.RecalibrateV {
		v, err := core.CalibrateV(s.Params.KneeSlot, c.baseRate(), cfg)
		if err != nil {
			return nil, err
		}
		cfg.V = v
	} else {
		cfg.V = s.V * c.VFactor
	}
	return core.New(cfg)
}

// buildArrivals resolves the cell's arrival process.
func (c *SweepCell) buildArrivals(rng *geom.RNG) queueing.ArrivalProcess {
	if c.NewArrivals != nil {
		return c.NewArrivals(c, rng)
	}
	if c.ArrivalRate > 0 {
		return &queueing.PoissonArrivals{Mean: c.ArrivalRate, RNG: rng}
	}
	return &queueing.DeterministicArrivals{PerSlot: 1}
}

// buildService resolves the cell's service process around base.
func (c *SweepCell) buildService(base float64, rng *geom.RNG) delay.ServiceProcess {
	if c.NewService != nil {
		return c.NewService(c, base, rng)
	}
	return &delay.ConstantService{Rate: base}
}

// AxisPoint is one value of an axis: a display label, an optional
// numeric coordinate (exported to tables when Numeric is set), and the
// mutation it applies to a cell.
type AxisPoint struct {
	// Label names the point in row coordinates.
	Label string
	// Value is the point's numeric coordinate; meaningful only when
	// Numeric is true.
	Value float64
	// Numeric marks Value as a real coordinate (exported to tables).
	Numeric bool
	// Apply mutates the cell; a returned error aborts the sweep before
	// any cell runs.
	Apply func(c *SweepCell) error
}

// SweepAxis is one dimension of the grid: a name and its points. Axes
// cross in declaration order with the last axis varying fastest.
type SweepAxis struct {
	// Name identifies the axis in report coordinates and tables.
	Name string
	// Points are the axis values, each applied to its cells in turn.
	Points []AxisPoint
}

// Sweep construction and execution errors.
var (
	// ErrSweepNoScenario reports NewSweep without a calibrated scenario.
	ErrSweepNoScenario = errors.New("experiments: sweep needs a scenario")
	// ErrSweepNoAxes reports NewSweep without any axis.
	ErrSweepNoAxes = errors.New("experiments: sweep needs at least one axis")
	// ErrSweepEmptyAxis reports an axis with no points (or no name).
	ErrSweepEmptyAxis = errors.New("experiments: sweep axis needs a name and at least one point")
	// ErrSweepDuplicateAxis reports two axes sharing a name.
	ErrSweepDuplicateAxis = errors.New("experiments: duplicate sweep axis")
	// ErrSweepAllocatorBackend reports an allocator cell on the fleet
	// backend, which simulates independent sessions and has no shared
	// budget to split.
	ErrSweepAllocatorBackend = errors.New("experiments: allocator cells require the pool backend")
	// ErrSweepAllocatorAxes reports an allocator cell combined with a
	// control-side axis it cannot apply: multi-device cells take their
	// per-device policies, utilities, and arrivals from the Devices
	// specs, so V, policy, arrival, and utility axes would silently
	// have no effect — the sweep rejects the grid instead.
	ErrSweepAllocatorAxes = errors.New("experiments: allocator cells sweep only the allocator, service rate, network shape, and slots — V, policy, arrival, and utility axes do not apply")
	// ErrSweepIgnoredV reports a cell whose V setting another knob
	// overrides: a policy factory ignores VFactor and RecalibrateV, and
	// RecalibrateV ignores VFactor, so the grid would silently repeat
	// rows.
	ErrSweepIgnoredV = errors.New("experiments: V factor or recalibration set on a cell whose policy or recalibration overrides it")
)

// Sweep is a declarative grid experiment: the cross product of its axes
// over a calibrated scenario, executed concurrently on a backend.
// Configure the exported knobs before Run; zero values take the
// documented defaults. Build one Sweep per Run when axis points carry
// single-use state (allocator instances handed to a one-axis sweep).
type Sweep struct {
	// Workers bounds cell concurrency; <= 0 takes GOMAXPROCS. Reports
	// are byte-identical for every worker count.
	Workers int
	// Backend executes resolved cells: BackendPool (default) runs each
	// cell as one in-process simulation; BackendFleet(n) runs each cell
	// as an n-session fleet.
	Backend SweepBackend
	// Slots is the default cell horizon (0 takes the scenario horizon);
	// AxisSlots and per-cell overrides win.
	Slots int
	// Seed is the base seed cells derive theirs from (CellSeed).
	Seed uint64
	// Metrics opts the sweep into telemetry: every cell runs with a
	// private registry of the same accuracy, snapshotted onto its row
	// (SweepRow.Metrics) and merged into this registry as cells finish.
	// All merges are commutative, so the merged registry — like the
	// report — is byte-identical at any worker count.
	Metrics *obs.Registry
	// Recorder receives flight records from every cell (slot spans,
	// allocator decisions, netem and fleet lifecycle events). Shared
	// across cells and safe for concurrent use.
	Recorder *obs.FlightRecorder

	scn       *Scenario
	axes      []SweepAxis
	configure []func(c *SweepCell) error
}

// NewSweep validates the axes into a runnable sweep over the scenario.
func NewSweep(s *Scenario, axes ...SweepAxis) (*Sweep, error) {
	if s == nil {
		return nil, ErrSweepNoScenario
	}
	if len(axes) == 0 {
		return nil, ErrSweepNoAxes
	}
	seen := make(map[string]bool, len(axes))
	for _, ax := range axes {
		if ax.Name == "" || len(ax.Points) == 0 {
			return nil, fmt.Errorf("%w: %q", ErrSweepEmptyAxis, ax.Name)
		}
		if seen[ax.Name] {
			return nil, fmt.Errorf("%w: %q", ErrSweepDuplicateAxis, ax.Name)
		}
		seen[ax.Name] = true
	}
	return &Sweep{scn: s, axes: axes}, nil
}

// Configure appends base mutations applied to every cell before its
// axis points — the hook for grid-wide settings that are not an axis
// (device specs and budget for allocator grids, stochastic arrival and
// service processes for fleet grids, a pinned seed). Returns the sweep
// for chaining.
func (sw *Sweep) Configure(fns ...func(c *SweepCell) error) *Sweep {
	sw.configure = append(sw.configure, fns...)
	return sw
}

// Axes returns the axis names in declaration order.
func (sw *Sweep) Axes() []string {
	names := make([]string, len(sw.axes))
	for i, ax := range sw.axes {
		names[i] = ax.Name
	}
	return names
}

// Cells returns the grid size (the product of the axis lengths).
func (sw *Sweep) Cells() int {
	n := 1
	for _, ax := range sw.axes {
		n *= len(ax.Points)
	}
	return n
}

// CellSeed derives the seed of one grid cell from the sweep seed — a
// SplitMix64 finalizer over (seed, cell), mirroring fleet.SeatSeed —
// so every cell's RNG streams are decorrelated from its neighbors' and
// independent of how cells are scheduled onto workers.
func CellSeed(seed uint64, cell int) uint64 {
	z := seed ^ 0x5357454550434c4c // "SWEEPCLL"
	z += 0x9e3779b97f4a7c15 * uint64(cell+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// horizon resolves a cell's slot count: the cell override, then the
// sweep default, then the scenario horizon.
func (sw *Sweep) horizon(c *SweepCell) int {
	switch {
	case c.Slots > 0:
		return c.Slots
	case sw.Slots > 0:
		return sw.Slots
	default:
		return sw.scn.Params.Slots
	}
}

// grid crosses the axes into every cell's configuration and coordinates,
// applying Configure hooks and axis mutations eagerly so configuration
// errors surface before any cell runs.
func (sw *Sweep) grid() ([]*SweepCell, [][]SweepCoord, error) {
	total := sw.Cells()
	cells := make([]*SweepCell, total)
	coords := make([][]SweepCoord, total)
	for idx := 0; idx < total; idx++ {
		cell := &SweepCell{
			Scenario:        sw.scn,
			VFactor:         1,
			ServiceFraction: 1,
			Seed:            CellSeed(sw.Seed, idx),
		}
		for _, fn := range sw.configure {
			if err := fn(cell); err != nil {
				return nil, nil, fmt.Errorf("experiments: sweep cell %d: %w", idx, err)
			}
		}
		// Decompose idx with the last axis varying fastest.
		pts := make([]int, len(sw.axes))
		rem := idx
		for a := len(sw.axes) - 1; a >= 0; a-- {
			n := len(sw.axes[a].Points)
			pts[a] = rem % n
			rem /= n
		}
		cc := make([]SweepCoord, len(sw.axes))
		for a, ax := range sw.axes {
			p := ax.Points[pts[a]]
			if p.Apply != nil {
				if err := p.Apply(cell); err != nil {
					return nil, nil, fmt.Errorf("experiments: sweep cell %d (%s=%s): %w", idx, ax.Name, p.Label, err)
				}
			}
			cc[a] = SweepCoord{Axis: ax.Name, Label: p.Label, Value: p.Value, Numeric: p.Numeric}
		}
		if (cell.NewPolicy != nil && (cell.VFactor != 1 || cell.RecalibrateV)) ||
			(cell.RecalibrateV && cell.VFactor != 1) {
			return nil, nil, fmt.Errorf("experiments: sweep cell %d (%s): %w", idx, coordKey(cc), ErrSweepIgnoredV)
		}
		cells[idx] = cell
		coords[idx] = cc
	}
	return cells, coords, nil
}

// Run crosses the axes, executes every cell on the backend under ctx,
// and returns the unified report with rows in grid order (last axis
// fastest). The first cell error cancels the in-flight cells; a
// root-cause cell error is preferred over the cancellations it fans out.
func (sw *Sweep) Run(ctx context.Context) (*SweepReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	backend := sw.Backend
	if backend == nil {
		backend = BackendPool()
	}
	cells, coords, err := sw.grid()
	if err != nil {
		return nil, err
	}
	rows := make([]*SweepRow, len(cells))
	err = RunPool(ctx, sw.Workers, len(cells), func(ctx context.Context, i int) error {
		if sw.Metrics != nil {
			cells[i].metrics = obs.NewRegistryAccuracy(sw.Metrics.Accuracy())
		}
		cells[i].recorder = sw.Recorder
		row, err := backend.run(ctx, sw, cells[i], coords[i])
		if err == nil && sw.Metrics != nil {
			row.Metrics = cells[i].metrics.Snapshot()
			// Commutative fold (counters add, gauges max, sketches
			// merge), so completion order — and hence worker count —
			// cannot change the merged registry.
			if merr := sw.Metrics.Merge(cells[i].metrics); merr != nil {
				err = fmt.Errorf("merging telemetry: %w", merr)
			}
		}
		if err != nil {
			return fmt.Errorf("experiments: sweep cell %d (%s): %w", i, coordKey(coords[i]), err)
		}
		row.Cell = i
		row.Coords = coords[i]
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}

	rep := &SweepReport{
		Axes:    sw.Axes(),
		Backend: backend.Name(),
		Seed:    sw.Seed,
		Rows:    make([]SweepRow, len(rows)),
	}
	for i, r := range rows {
		rep.Rows[i] = *r
	}
	return rep, nil
}

// coordKey joins coordinate labels for error messages and default
// profile names.
func coordKey(coords []SweepCoord) string {
	s := ""
	for i, c := range coords {
		if i > 0 {
			s += "/"
		}
		s += c.Axis + "=" + c.Label
	}
	return s
}

// ---------------------------------------------------------------------------
// Backends
// ---------------------------------------------------------------------------

// SweepBackend executes one resolved grid cell. The two implementations
// are BackendPool (in-process single runs) and BackendFleet (one fleet
// per cell).
type SweepBackend interface {
	// Name labels the backend in reports.
	Name() string
	// run executes one cell into its row.
	run(ctx context.Context, sw *Sweep, c *SweepCell, coords []SweepCoord) (*SweepRow, error)
}

type poolBackend struct{}

// BackendPool returns the in-process backend: each cell is one
// simulation run — a single-device slot loop, or a shared-budget
// multi-device run when the cell carries an allocator.
func BackendPool() SweepBackend { return poolBackend{} }

// Name implements SweepBackend.
func (poolBackend) Name() string { return "pool" }

func (poolBackend) run(ctx context.Context, sw *Sweep, c *SweepCell, coords []SweepCoord) (*SweepRow, error) {
	if c.NewAllocator != nil || len(c.Devices) > 0 {
		return runMultiCell(ctx, sw, c)
	}
	return runSimCell(ctx, sw, c)
}

type fleetBackend struct{ sessions int }

// BackendFleet returns the fleet backend: each cell runs a population of
// the given session count (<= 0 takes 256) through the sharded fleet
// engine, summarized by its streaming quantile sketches.
func BackendFleet(sessions int) SweepBackend {
	if sessions <= 0 {
		sessions = 256
	}
	return fleetBackend{sessions: sessions}
}

// Name implements SweepBackend.
func (fleetBackend) Name() string { return "fleet" }

func (b fleetBackend) run(ctx context.Context, sw *Sweep, c *SweepCell, coords []SweepCoord) (*SweepRow, error) {
	if c.NewAllocator != nil || len(c.Devices) > 0 {
		return nil, ErrSweepAllocatorBackend
	}
	name := c.ProfileName
	if name == "" {
		name = coordKey(coords)
	}
	prof := fleet.Profile{
		Name:   name,
		Weight: 1,
		NewPolicy: func(rng *geom.RNG) (policy.Policy, error) {
			return c.buildPolicy(rng)
		},
		Cost:    c.Scenario.Cost,
		Utility: c.utility(),
		NewService: func(rng *geom.RNG) delay.ServiceProcess {
			return c.buildService(c.baseRate(), rng)
		},
	}
	// Arrivals stay on the engine's default (one frame per slot) unless
	// the cell asks for stochastic load.
	if c.NewArrivals != nil || c.ArrivalRate > 0 {
		prof.NewArrivals = func(rng *geom.RNG) queueing.ArrivalProcess {
			return c.buildArrivals(rng)
		}
	}
	rep, err := fleet.RunContext(ctx, fleet.Spec{
		Sessions: b.sessions,
		Slots:    sw.horizon(c),
		Seed:     c.Seed,
		Profiles: []fleet.Profile{prof},
		Metrics:  c.metrics,
		Recorder: c.recorder,
	})
	if err != nil {
		return nil, err
	}
	return &SweepRow{
		Backend:     "fleet",
		Sessions:    rep.Total.Sessions,
		Utility:     rep.Total.Utility.Mean,
		Backlog:     rep.Total.Backlog.Mean,
		MaxBacklog:  rep.Total.Backlog.Max,
		P95Backlog:  rep.Total.Backlog.P95,
		MeanSojourn: rep.Total.Sojourn.Mean,
		P95Sojourn:  rep.Total.Sojourn.P95,
		P99Sojourn:  rep.Total.Sojourn.P99,
		KneeSlot:    -1,
		Verdict:     majorityVerdict(rep.Total.Verdicts),
		Verdicts:    rep.Total.Verdicts,
		Detail:      &SweepCellResult{Fleet: rep},
	}, nil
}

// runSimCell executes one single-device cell: the cell's policy,
// arrivals, and service resolved from dedicated child streams of the
// cell seed (in that fixed order, mirroring WithSeed's documented
// reseed order), driven through the slotted simulator.
func runSimCell(ctx context.Context, sw *Sweep, c *SweepCell) (*SweepRow, error) {
	rng := geom.NewRNG(c.Seed)
	polRNG, arrRNG, svcRNG := rng.Split(), rng.Split(), rng.Split()
	pol, err := c.buildPolicy(polRNG)
	if err != nil {
		return nil, err
	}
	cfg := sim.Config{
		Policy:   pol,
		Arrivals: c.buildArrivals(arrRNG),
		Cost:     c.Scenario.Cost,
		Utility:  c.utility(),
		Service:  c.buildService(c.baseRate(), svcRNG),
		Slots:    sw.horizon(c),
		Metrics:  c.metrics,
		Recorder: c.recorder,
	}
	res, err := sim.RunContext(ctx, cfg)
	if err != nil {
		return nil, err
	}
	row := &SweepRow{
		Backend:     "pool",
		Sessions:    1,
		Utility:     res.TimeAvgUtility,
		Backlog:     res.TimeAvgBacklog,
		MaxBacklog:  res.MaxBacklog,
		MeanSojourn: res.MeanSojourn,
		Detail:      &SweepCellResult{Sim: res},
	}
	row.P95Backlog = percentileOrZero(res.Backlog, 95)
	fillSojournQuantiles(row, res.Completed)
	row.MeanDepth, row.KneeSlot = depthSummary(res.Depth)
	if v, err := res.Verdict(); err == nil {
		row.Verdict = v.String()
		row.Verdicts.Add(v)
	} else {
		row.Verdict = unclassified
		row.Verdicts.Unclassified++
	}
	return row, nil
}

// runMultiCell executes one shared-budget multi-device cell: the
// scenario-derived heterogeneous fleet contends for the cell budget
// under the cell's allocator.
func runMultiCell(ctx context.Context, sw *Sweep, c *SweepCell) (*SweepRow, error) {
	// Reject swept knobs this cell shape cannot honor: the devices carry
	// their own controllers (at the scenario's calibrated V), utilities,
	// and arrivals, so applying these axes here would silently produce
	// duplicated rows dressed up as a real sweep.
	if c.NewPolicy != nil || c.Utility != nil || c.RecalibrateV ||
		c.VFactor != 1 || c.ArrivalRate > 0 || c.NewArrivals != nil {
		return nil, ErrSweepAllocatorAxes
	}
	specs := c.Devices
	if len(specs) == 0 {
		specs = HeterogeneousSpecs(8)
	}
	budget := c.Budget
	if budget <= 0 {
		budget = 1.25 * FleetMinDemand(c.Scenario, specs)
	}
	budget *= c.ServiceFraction
	devices, err := fleetDevices(c.Scenario, specs, false)
	if err != nil {
		return nil, err
	}
	var a alloc.Allocator
	if c.NewAllocator != nil {
		if a, err = c.NewAllocator(); err != nil {
			return nil, err
		}
	}
	rng := geom.NewRNG(c.Seed)
	svcRNG := rng.Split()
	// Stochastic allocators (the learned bandit) get their own child
	// stream, drawn after the service stream so cells with static
	// allocators keep their historical byte streams.
	if r, ok := a.(interface{ Reseed(*geom.RNG) }); ok {
		r.Reseed(rng.Split())
	}
	res, err := sim.RunMultiContext(ctx, sim.MultiConfig{
		Devices:   devices,
		Service:   c.buildService(budget, svcRNG),
		Allocator: a,
		Slots:     sw.horizon(c),
		Metrics:   c.metrics,
		Recorder:  c.recorder,
	})
	if err != nil {
		return nil, err
	}
	row := &SweepRow{
		Backend:   "pool",
		Sessions:  int64(len(res.PerDevice)),
		Utility:   res.MeanTimeAvgUtility,
		Backlog:   res.TotalTimeAvgBacklog,
		MeanDepth: 0,
		KneeSlot:  -1,
		Detail:    &SweepCellResult{Multi: res},
	}
	var sojourns []float64
	for _, r := range res.PerDevice {
		for _, fr := range r.Completed {
			sojourns = append(sojourns, float64(fr.Sojourn))
		}
		if v, err := r.Verdict(); err == nil {
			row.Verdicts.Add(v)
		} else {
			row.Verdicts.Unclassified++
		}
	}
	// Backlog metrics all read the fleet-summed trajectory, matching
	// Backlog (the summed time average) and the Verdict classification.
	sum := res.SummedBacklog()
	for _, q := range sum {
		if q > row.MaxBacklog {
			row.MaxBacklog = q
		}
	}
	row.P95Backlog = percentileOrZero(sum, 95)
	fillSojournSlice(row, sojourns)
	if v, err := res.Verdict(); err == nil {
		row.Verdict = v.String()
	} else {
		row.Verdict = unclassified
	}
	return row, nil
}

// unclassified labels a row whose trajectories are too short to
// classify, on every backend.
const unclassified = "unclassified"

// majorityVerdict labels a fleet cell by its most common session
// verdict ("mixed" on ties, "unclassified" when nothing classified).
func majorityVerdict(vc fleet.VerdictCounts) string {
	type kv struct {
		name  string
		count int64
	}
	// Fixed order makes tie detection deterministic.
	ranked := []kv{
		{queueing.VerdictStabilized.String(), vc.Stabilized},
		{queueing.VerdictConverged.String(), vc.Converged},
		{queueing.VerdictDiverging.String(), vc.Diverging},
	}
	best, tie := kv{}, false
	for _, e := range ranked {
		switch {
		case e.count > best.count:
			best, tie = e, false
		case e.count == best.count && e.count > 0:
			tie = true
		}
	}
	switch {
	case best.count == 0:
		return unclassified
	case tie:
		return "mixed"
	default:
		return best.name
	}
}

// percentileOrZero is stats.Percentile with empty-input tolerance.
func percentileOrZero(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	v, err := stats.Percentile(xs, p)
	if err != nil {
		return 0
	}
	return v
}

// fillSojournQuantiles summarizes completed-frame sojourns into the row.
func fillSojournQuantiles(row *SweepRow, completed []queueing.Completed) {
	sojourns := make([]float64, 0, len(completed))
	for _, c := range completed {
		sojourns = append(sojourns, float64(c.Sojourn))
	}
	fillSojournSlice(row, sojourns)
}

func fillSojournSlice(row *SweepRow, sojourns []float64) {
	if len(sojourns) == 0 {
		return
	}
	var sum float64
	for _, s := range sojourns {
		sum += s
	}
	row.MeanSojourn = sum / float64(len(sojourns))
	row.P95Sojourn = percentileOrZero(sojourns, 95)
	row.P99Sojourn = percentileOrZero(sojourns, 99)
}

// depthSummary computes the mean chosen depth and the knee slot (the
// first slot the policy backs off from the deepest depth it ever
// chooses; -1 when it never does).
func depthSummary(depth []int) (mean float64, knee int) {
	if len(depth) == 0 {
		return 0, -1
	}
	sum, dMax := 0.0, depth[0]
	for _, d := range depth {
		sum += float64(d)
		if d > dMax {
			dMax = d
		}
	}
	knee = -1
	for t, d := range depth {
		if d < dMax {
			knee = t
			break
		}
	}
	return sum / float64(len(depth)), knee
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

// SweepCoord locates a row along one axis.
type SweepCoord struct {
	// Axis names the dimension.
	Axis string `json:"axis"`
	// Label is the point's display value.
	Label string `json:"label"`
	// Value is the numeric coordinate when Numeric is set.
	Value float64 `json:"value"`
	// Numeric marks Value as meaningful.
	Numeric bool `json:"numeric"`
}

// SweepCellResult carries a cell's full backend result for drill-down;
// exactly one field is non-nil. Excluded from row serialization (it
// retains full trajectories and wall-clock fields).
type SweepCellResult struct {
	// Sim is the single-device run result of a pool cell.
	Sim *sim.Result
	// Multi is the shared-budget run result of an allocator cell.
	Multi *sim.MultiResult
	// Fleet is the population report of a fleet cell.
	Fleet *fleet.Report
}

// SweepRow is one grid cell's outcome: its coordinates plus the common
// metric set every backend fills (utility, backlog, sojourn quantiles,
// verdict). Pool sim cells additionally report MeanDepth/KneeSlot;
// quantiles of fleet cells come from the engine's streaming sketches.
type SweepRow struct {
	// Cell is the row's index in grid order (last axis fastest).
	Cell int `json:"cell"`
	// Coords locate the cell on every axis, in axis order.
	Coords []SweepCoord `json:"coords"`
	// Backend names the executor ("pool" or "fleet").
	Backend string `json:"backend"`
	// Sessions counts simulated sessions (1 for sim cells, the device
	// count for allocator cells, the population for fleet cells).
	Sessions int64 `json:"sessions"`
	// Utility is the time-average (pool) or fleet-mean quality.
	Utility float64 `json:"utility"`
	// Backlog is the time-average (pool; summed across devices for
	// allocator cells) or fleet-mean backlog.
	Backlog float64 `json:"backlog"`
	// MaxBacklog is the peak backlog observed.
	MaxBacklog float64 `json:"max_backlog"`
	// P95Backlog is the 95th percentile of the backlog distribution
	// (over time for pool cells, over the population for fleet cells).
	P95Backlog float64 `json:"p95_backlog"`
	// MeanSojourn, P95Sojourn, P99Sojourn summarize completed frames'
	// queueing+service delay in slots.
	MeanSojourn float64 `json:"mean_sojourn"`
	// P95Sojourn is the 95th-percentile frame sojourn.
	P95Sojourn float64 `json:"p95_sojourn"`
	// P99Sojourn is the 99th-percentile frame sojourn.
	P99Sojourn float64 `json:"p99_sojourn"`
	// MeanDepth is the mean chosen depth (pool sim cells; 0 otherwise).
	MeanDepth float64 `json:"mean_depth"`
	// KneeSlot is the slot the policy first backs off its deepest
	// choice (pool sim cells; -1 when absent).
	KneeSlot int `json:"knee_slot"`
	// Verdict classifies the cell: the trajectory verdict for pool
	// cells, the majority session verdict for fleet cells.
	Verdict string `json:"verdict"`
	// Verdicts tallies per-session classifications.
	Verdicts fleet.VerdictCounts `json:"verdicts"`
	// Metrics is the cell's telemetry snapshot when Sweep.Metrics was
	// set; nil otherwise. Excluded from the row's JSON so telemetry-on
	// and telemetry-off reports marshal byte-identically — export the
	// merged sweep registry (or this snapshot) separately.
	Metrics *obs.Snapshot `json:"-"`
	// Detail is the full backend result (not serialized).
	Detail *SweepCellResult `json:"-"`
}

// SweepReport is the unified result of a sweep run: one row per grid
// cell in grid order. Byte-identical (including its JSON encoding) for
// a given sweep and seed at any worker count.
type SweepReport struct {
	// Axes echoes the axis names in declaration order.
	Axes []string `json:"axes"`
	// Backend names the executor.
	Backend string `json:"backend"`
	// Seed echoes the sweep seed.
	Seed uint64 `json:"seed"`
	// Rows holds every cell's outcome.
	Rows []SweepRow `json:"rows"`
}

// Table exports the report as a trace.Table over the cell index: one
// series per numeric axis coordinate plus the common metrics — ready
// for CSV/JSON export or ASCII charting.
func (r *SweepReport) Table() (*trace.Table, error) {
	x := make([]float64, len(r.Rows))
	for i := range r.Rows {
		x[i] = float64(r.Rows[i].Cell)
	}
	tab := trace.NewTableWithX("cell", x)
	for a, name := range r.Axes {
		numeric := len(r.Rows) > 0
		vals := make([]float64, len(r.Rows))
		for i, row := range r.Rows {
			if a >= len(row.Coords) || !row.Coords[a].Numeric {
				numeric = false
				break
			}
			vals[i] = row.Coords[a].Value
		}
		if !numeric {
			continue
		}
		if err := tab.Add(trace.Series{Name: name, Values: vals}); err != nil {
			return nil, err
		}
	}
	metrics := []struct {
		name string
		get  func(*SweepRow) float64
	}{
		{"utility", func(r *SweepRow) float64 { return r.Utility }},
		{"backlog", func(r *SweepRow) float64 { return r.Backlog }},
		{"max_backlog", func(r *SweepRow) float64 { return r.MaxBacklog }},
		{"p95_backlog", func(r *SweepRow) float64 { return r.P95Backlog }},
		{"mean_sojourn", func(r *SweepRow) float64 { return r.MeanSojourn }},
		{"p99_sojourn", func(r *SweepRow) float64 { return r.P99Sojourn }},
	}
	for _, m := range metrics {
		vals := make([]float64, len(r.Rows))
		for i := range r.Rows {
			vals[i] = m.get(&r.Rows[i])
		}
		if err := tab.Add(trace.Series{Name: m.name, Values: vals}); err != nil {
			return nil, err
		}
	}
	return tab, nil
}

// TextTable renders the report as headers plus one formatted row per
// cell, for trace.RenderTextTable.
func (r *SweepReport) TextTable() ([]string, [][]string) {
	headers := append([]string{}, r.Axes...)
	headers = append(headers, "utility", "backlog", "max backlog", "p95 backlog", "mean sojourn", "p99 sojourn", "verdict")
	cells := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		line := make([]string, 0, len(headers))
		for a := range r.Axes {
			label := ""
			if a < len(row.Coords) {
				label = row.Coords[a].Label
			}
			line = append(line, label)
		}
		line = append(line,
			fmt.Sprintf("%.4f", row.Utility),
			fmt.Sprintf("%.1f", row.Backlog),
			fmt.Sprintf("%.1f", row.MaxBacklog),
			fmt.Sprintf("%.1f", row.P95Backlog),
			fmt.Sprintf("%.2f", row.MeanSojourn),
			fmt.Sprintf("%.2f", row.P99Sojourn),
			row.Verdict,
		)
		cells[i] = line
	}
	return headers, cells
}

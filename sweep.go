package qarv

import "qarv/internal/experiments"

// ---------------------------------------------------------------------------
// Declarative sweeps (one experiment engine over sessions and fleets)
// ---------------------------------------------------------------------------

type (
	// Sweep is a declarative grid experiment: the cross product of its
	// axes over a calibrated scenario, executed concurrently on a
	// pluggable backend with per-cell seed derivation, so reports are
	// byte-identical at any worker count. Build with NewSweep, configure
	// the exported knobs (Workers, Backend, Slots, Seed), then Run.
	Sweep = experiments.Sweep
	// SweepAxis is one dimension of a sweep grid; axes cross in
	// declaration order with the last axis varying fastest.
	SweepAxis = experiments.SweepAxis
	// SweepAxisPoint is one value of a sweep axis: a label, an optional
	// numeric coordinate, and the cell mutation it applies. Hand-built
	// points extend a typed axis with knobs it does not cover.
	SweepAxisPoint = experiments.AxisPoint
	// SweepCell is the mutable per-cell configuration axis points and
	// Sweep.Configure hooks mutate before the backend runs the cell.
	SweepCell = experiments.SweepCell
	// SweepBackend executes resolved sweep cells: BackendPool runs each
	// cell in process, BackendFleet runs each cell as a session
	// population.
	SweepBackend = experiments.SweepBackend
	// SweepRow is one grid cell's outcome: axis coordinates plus the
	// common metric set (utility, backlog, sojourn quantiles, verdict),
	// with the cell's full backend result in Detail. Sweep.Run reports
	// one per cell in grid order.
	SweepRow = experiments.SweepRow
	// SweepNetwork names one capacity shape of a network axis: a
	// unitless factor process on the base capacity (nil is static) that
	// New turns into one run's process.
	SweepNetwork = experiments.SweepNetwork
	// PolicySpec names one depth-policy candidate of a policy axis.
	PolicySpec = experiments.PolicySpec
)

// NewSweep validates typed axes into a runnable sweep over the
// calibrated scenario: the grid is their cross product, each cell
// resolved from the scenario defaults (proposed controller at the
// calibrated V, one-frame-per-slot arrivals, constant service at the
// calibrated rate) with every axis overriding its knob.
//
//	sw, _ := qarv.NewSweep(scn,
//	    qarv.AxisV(0.5, 1, 2),
//	    qarv.AxisNetwork(qarv.NetworkStatic(), qarv.NetworkMarkov(0.6)),
//	)
//	sw.Backend = qarv.BackendFleet(1000) // population-scale cells
//	rep, _ := sw.Run(ctx)                // rows in grid order
func NewSweep(s *Scenario, axes ...SweepAxis) (*Sweep, error) {
	return experiments.NewSweep(s, axes...)
}

// BackendPool returns the in-process sweep backend: each cell is one
// simulation run (single-device, or shared-budget multi-device when the
// cell carries an allocator), executed across the sweep's workers.
func BackendPool() SweepBackend { return experiments.BackendPool() }

// BackendFleet returns the fleet sweep backend: each cell runs a
// population of the given session count (<= 0 takes 256) through the
// sharded fleet engine.
func BackendFleet(sessions int) SweepBackend { return experiments.BackendFleet(sessions) }

// AxisV sweeps the Lyapunov tradeoff knob: each point runs the proposed
// controller at factor × the calibrated V.
func AxisV(factors ...float64) SweepAxis { return experiments.AxisV(factors...) }

// AxisServiceRate sweeps provisioning: each point scales the cell's
// base capacity by the fraction.
func AxisServiceRate(fractions ...float64) SweepAxis {
	return experiments.AxisServiceRate(fractions...)
}

// AxisArrivalRate sweeps offered load: each point replaces the paper's
// one-frame-per-slot arrivals with Poisson arrivals at the given mean.
func AxisArrivalRate(means ...float64) SweepAxis { return experiments.AxisArrivalRate(means...) }

// AxisSlots sweeps the horizon.
func AxisSlots(slots ...int) SweepAxis { return experiments.AxisSlots(slots...) }

// AxisPolicy sweeps the control policy over named policy factories (see
// SweepPolicyByName for the built-ins).
func AxisPolicy(specs ...PolicySpec) SweepAxis { return experiments.AxisPolicy(specs...) }

// SweepPolicyByName builds a built-in policy spec: "proposed", "max",
// "min", "random", "threshold", "oracle", or the learning-layer forms
// "predictive[:H]", "delayed[:L]", and "predictive-delayed[:L]" (the
// proposed controller extrapolated H slots ahead, observed L slots
// stale, or both composed). Unknown names error with the full
// enumeration (SweepPolicyNames).
func SweepPolicyByName(name string) (PolicySpec, error) { return experiments.PolicyByName(name) }

// AxisAllocator sweeps the shared-budget split strategy by allocator
// name (any AllocatorByName form, learned allocators included),
// switching cells to multi-device runs; pool backend only.
func AxisAllocator(names ...string) SweepAxis { return experiments.AxisAllocator(names...) }

// AxisContent sweeps the content asset: each point recalibrates the
// cell's scenario over that profile's measured stream-byte and PSNR
// ladders (NewContentScenario), keeping the sweep's control-side knobs
// so cells stay comparable across assets. Build the profiles up front
// with LoadContent so the asset pipeline runs once per asset.
func AxisContent(profiles ...*ContentProfile) SweepAxis {
	return experiments.AxisContent(profiles...)
}

// AxisViewDistance sweeps viewing distance: each point rebuilds the
// base asset's content profile with view-PSNR quality measured through
// a camera at that distance (meters) and recalibrates the cell's
// scenario over it — the viewpoint-dependent quality axis. Profiles
// resolve through the content cache, so each distance builds once per
// process.
func AxisViewDistance(base ContentConfig, distances ...float64) SweepAxis {
	return experiments.AxisViewDistance(base, distances...)
}

// AxisNetwork sweeps the network/capacity shape (NetworkStatic,
// NetworkMarkov, NetworkHandoff, NetworkTraceShape, or a custom
// SweepNetwork with any factor process).
func AxisNetwork(nets ...SweepNetwork) SweepAxis { return experiments.AxisNetwork(nets...) }

// NetworkStatic is the constant-capacity sweep shape.
func NetworkStatic() SweepNetwork { return experiments.NetworkStatic() }

// NetworkMarkov is the mean-preserving Gilbert–Elliott fading sweep
// shape at the given volatility in [0, 1) (good = (1+v)×, bad = (1−v)×
// the base rate, symmetric 10-slot mean dwells).
func NetworkMarkov(volatility float64) SweepNetwork { return experiments.NetworkMarkov(volatility) }

// NetworkHandoff is the mobility sweep shape: base capacity modulated
// by the default handoff factor process.
func NetworkHandoff() SweepNetwork { return experiments.NetworkHandoff() }

// NetworkTraceShape replays a factor trace over the base capacity. The
// trace is a pure function of the slot, so every cell shares it.
func NetworkTraceShape(tb *TraceBandwidth) SweepNetwork { return experiments.NetworkTrace(tb) }

// Package qarv is a Go implementation of "Quality-Aware Real-Time
// Augmented Reality Visualization under Delay Constraints" (Lee, Park,
// Jung, Kim — IEEE ICDCS 2022): a Lyapunov drift-plus-penalty controller
// that picks the Octree depth of AR point-cloud frames each time slot,
// maximizing time-average visualization quality subject to queue
// stability.
//
// The package is a facade over the implementation packages: it re-exports
// the controller (Eq. (3) of the paper), the baseline policies, the
// slotted simulator, the fleet-scale engine, the octree/point-cloud
// substrates, the synthetic 8i-like dataset generator, and the
// calibrated scenarios and sweeps the paper's figures are built from
// (cmd/qarvfig draws them). The exported names below are the
// supported public API; see README.md for the system tour and quickstart.
//
// # Sessions
//
// The slotted scenarios — the single-device simulation and the
// shared-budget multi-device run — are driven through one composable
// entry point, the Session: a functional-options builder that validates
// once and runs under a context.
//
//	scn, _ := qarv.NewScenario(qarv.ScenarioParams{})
//	s, _ := qarv.NewSession(qarv.WithScenario(scn))
//	rep, _ := s.Run(ctx) // honors ctx cancellation down the slot loops
//	fmt.Println(rep.Verdict, rep.TimeAvgUtility, rep.TimeAvgBacklog)
//
// Options override any scenario default (WithPolicy, WithArrivals,
// WithService, WithCost, WithUtility, WithSlots), switch to the
// multi-device kind (WithDevices), make every stochastic component
// deterministic from one seed (WithSeed), and attach per-slot streaming
// hooks (WithObserver). Batches of runs are grids on the sweep engine
// (see NewSweep), which runs cells concurrently with rows in grid
// order:
//
//	sw, _ := qarv.NewSweep(scn, qarv.AxisV(0.5, 1, 2))
//	rep, _ := sw.Run(ctx) // rep.Rows[i] belongs to the i-th V factor
//
// # Uplinks
//
// Edge offload moves the delay model onto the network: devices ship
// their octree streams over an emulated uplink, so the workload a(d) is
// the stream size in bytes and the service rate the uplink bandwidth.
// SharedUplink runs it for a fleet of devices contending for one link;
// the single-device offload run is a fleet of one:
//
//	up, _ := qarv.SharedUplink(ctx, qarv.SharedUplinkParams{
//	    ScenarioParams: qarv.ScenarioParams{Seed: 11},
//	    Devices:        1,
//	})
//	fmt.Println(up.Bandwidth, up.MeanLatency, up.PerDevice[0].Verdict)
//
// # Fleets
//
// Above the single session sits the fleet engine: 10k–1M independent
// device sessions striped across shards, with churn and weighted
// heterogeneous profile mixes, aggregated in O(1) memory through
// streaming quantile sketches (see NewFleet, FleetSpec, Profile):
//
//	fl, _ := qarv.NewFleet(qarv.FleetSpec{
//	    Sessions: 100_000, Slots: 1000, Churn: 0.001, Seed: 1,
//	    Profiles: []qarv.Profile{scn.FleetProfile("proposed", 1, 1)},
//	})
//	frep, _ := fl.Run(ctx)
//	fmt.Println(frep.Total.Sojourn.P99, frep.DeviceSlotsPerSec)
//
// # Sweeps
//
// Experiments are declarative: NewSweep crosses typed axes (AxisV,
// AxisServiceRate, AxisArrivalRate, AxisPolicy, AxisAllocator,
// AxisNetwork, AxisSlots, or a hand-built SweepAxis) into a grid over a
// calibrated scenario and runs every cell concurrently on a pluggable
// backend — BackendPool in process, BackendFleet as a session
// population per cell — with per-cell seed derivation, so reports are
// byte-identical at any worker count:
//
//	sw, _ := qarv.NewSweep(scn,
//	    qarv.AxisV(0.5, 1, 2),
//	    qarv.AxisNetwork(qarv.NetworkStatic(), qarv.NetworkMarkov(0.6)),
//	)
//	sw.Backend = qarv.BackendFleet(1000)
//	rep, _ := sw.Run(ctx)    // one SweepRow per cell, grid order
//	tab, _ := rep.Table()    // trace.Table → CSV/JSON/ASCII
//
// Every ablation of the evaluation is such a grid; cmd/qarvsweep runs
// grids from the command line.
//
// # Building blocks
//
//	cloud, _ := qarv.GenerateBody(qarv.BodyConfig{}, qarv.Pose{})
//	tree, _ := qarv.BuildOctree(cloud, 10)
//	scn, _ := qarv.NewScenario(qarv.ScenarioParams{})
//	ctrl, _ := scn.Controller()
//	depth := ctrl.Decide(0, backlog) // d*(t) = argmax V·pa(d) − Q·a(d)
package qarv

import (
	"context"

	"qarv/internal/alloc"
	"qarv/internal/content"
	"qarv/internal/core"
	"qarv/internal/delay"
	"qarv/internal/experiments"
	"qarv/internal/geom"
	"qarv/internal/netem"
	"qarv/internal/octree"
	"qarv/internal/pointcloud"
	"qarv/internal/policy"
	"qarv/internal/quality"
	"qarv/internal/queueing"
	"qarv/internal/sim"
	"qarv/internal/synthetic"
)

// ---------------------------------------------------------------------------
// Core controller (the paper's contribution)
// ---------------------------------------------------------------------------

type (
	// Controller is the drift-plus-penalty depth controller (Eq. (3)).
	Controller = core.Controller
	// ControllerConfig parameterizes NewController.
	ControllerConfig = core.Config
)

// NewController validates the configuration and builds a controller.
func NewController(cfg ControllerConfig) (*Controller, error) { return core.New(cfg) }

// CalibrateV picks V so the control knee lands at the given slot (see
// core.CalibrateV).
func CalibrateV(kneeSlot, serviceRate float64, cfg ControllerConfig) (float64, error) {
	return core.CalibrateV(kneeSlot, serviceRate, cfg)
}

// ---------------------------------------------------------------------------
// Policies
// ---------------------------------------------------------------------------

type (
	// Policy selects a depth per slot from the backlog observation.
	Policy = policy.Policy
	// FixedDepth always picks its configured depth.
	FixedDepth = policy.FixedDepth
)

// NewRandomPolicy returns the uniform-random baseline.
func NewRandomPolicy(depths []int, seed uint64) (Policy, error) {
	return policy.NewRandom(depths, geom.NewRNG(seed))
}

// ---------------------------------------------------------------------------
// Quality and delay models
// ---------------------------------------------------------------------------

type (
	// UtilityModel maps depth to the quality pa(d).
	UtilityModel = quality.UtilityModel
	// CostModel maps depth to per-frame workload a(d).
	CostModel = delay.CostModel
	// PointCostModel charges work per rendered point.
	PointCostModel = delay.PointCostModel
	// ServiceProcess yields a per-slot capacity: device service, the
	// shared edge budget, or a factor on an uplink's bandwidth.
	ServiceProcess = delay.ServiceProcess
	// ConstantService is a fixed-capacity service process.
	ConstantService = delay.ConstantService
	// NoisyService draws capacity from a truncated Gaussian.
	NoisyService = delay.NoisyService
	// ModulatedService scales an inner service by a factor process
	// (failure injection, the -net network classes).
	ModulatedService = delay.ModulatedService
)

// RNG is the small, deterministic, splittable generator every stochastic
// component of the library draws from (synthetic captures, arrival
// processes, service jitter, random baselines, fleet profile factories).
type RNG = geom.RNG

// NewRNG returns the deterministic RNG used across the library.
func NewRNG(seed uint64) *RNG { return geom.NewRNG(seed) }

// NewLogPointUtility builds the default log-points utility model over an
// octree occupancy profile.
func NewLogPointUtility(profile []int) (UtilityModel, error) {
	return quality.NewLogPointUtility(profile)
}

// NewPointCostModel builds a per-point workload model over an occupancy
// profile.
func NewPointCostModel(profile []int, perPoint, perLevel, fixed float64) (*PointCostModel, error) {
	return delay.NewPointCostModel(profile, perPoint, perLevel, fixed)
}

// ---------------------------------------------------------------------------
// Point clouds, octrees, synthetic dataset
// ---------------------------------------------------------------------------

type (
	// Cloud is a point cloud with optional colors and normals.
	Cloud = pointcloud.Cloud
	// Octree is a depth-controllable octree over a cloud.
	Octree = octree.Octree
	// BodyConfig controls synthetic body generation.
	BodyConfig = synthetic.Config
	// Pose is a body stance (gait phase, yaw, lean).
	Pose = synthetic.Pose
)

// BuildOctree constructs an octree of the given max depth over a cloud.
func BuildOctree(c *Cloud, maxDepth int) (*Octree, error) { return octree.Build(c, maxDepth) }

// GenerateBody produces one synthetic voxelized full-body frame.
func GenerateBody(cfg BodyConfig, pose Pose) (*Cloud, error) { return synthetic.Generate(cfg, pose) }

// ---------------------------------------------------------------------------
// Queueing and simulation
// ---------------------------------------------------------------------------

type (
	// ArrivalProcess yields frames per slot.
	ArrivalProcess = queueing.ArrivalProcess
	// DeterministicArrivals is the paper's one-frame-per-slot process.
	DeterministicArrivals = queueing.DeterministicArrivals
	// PoissonArrivals delivers Poisson-distributed frames per slot.
	PoissonArrivals = queueing.PoissonArrivals
	// OnOffArrivals alternates bursts and silence.
	OnOffArrivals = queueing.OnOffArrivals
	// Verdict classifies a backlog trajectory.
	Verdict = queueing.Verdict
	// SimResult is a full run trajectory plus summaries.
	SimResult = sim.Result
	// Device is one client of a multi-device run.
	Device = sim.Device
	// MultiResult aggregates per-device results of a shared run.
	MultiResult = sim.MultiResult
	// Allocator splits the shared per-slot edge budget across devices
	// from their observed backlogs (see WithAllocator).
	Allocator = alloc.Allocator
	// MaxWeight serves the longest queues first (work-conserving).
	MaxWeight = alloc.MaxWeight
	// WeightedRoundRobin is a fluid deficit-round-robin split.
	WeightedRoundRobin = alloc.WeightedRoundRobin
	// SlotEvent is one slot's control decision and queue transition,
	// delivered to WithObserver hooks as the loop runs.
	SlotEvent = sim.SlotEvent
)

// VerdictDiverging is the verdict of a backlog that grows without
// bound.
const VerdictDiverging = queueing.VerdictDiverging

// NewMaxWeight returns a longest-queue-first allocator.
func NewMaxWeight() *MaxWeight { return alloc.NewMaxWeight() }

// NewWeightedRoundRobin returns a deficit-round-robin allocator; the
// i-th weight belongs to device i (missing entries weigh 1).
func NewWeightedRoundRobin(weights ...float64) *WeightedRoundRobin {
	return alloc.NewWeightedRoundRobin(weights...)
}

// AllocatorByName builds an allocator from a CLI-friendly name: the
// static builtins "equal", "proportional", "maxweight", and "wrr", plus
// the registered parameterized learners "bandit[:ARMS]" and
// "gradient[:STEP]". Unknown names error with the full enumeration
// (AllocatorNames).
func AllocatorByName(name string) (Allocator, error) { return alloc.ByName(name) }

// ---------------------------------------------------------------------------
// Content-backed workloads (measured quality/bytes ladders)
// ---------------------------------------------------------------------------

type (
	// ContentConfig selects and parameterizes a content asset build: a
	// synthetic preset or PLY file, sample budget, capture depth,
	// measured ladder depths, seed, and quality metric.
	ContentConfig = content.Config
	// ContentProfile is an immutable measured workload profile: per-depth
	// occupancy, stream-byte, and PSNR ladders over one asset.
	ContentProfile = content.Profile
)

// LoadContent returns the profile for cfg from the in-process content
// cache, measuring it on first use: generate (or read) the cloud, build
// the octree, measure the stream-byte ladder and the PSNR ladder. The
// returned profile is immutable and shared; each distinct configuration
// builds exactly once per process.
func LoadContent(cfg ContentConfig) (*ContentProfile, error) { return content.Load(cfg) }

// NewContentScenario calibrates a Scenario over a measured content
// profile: cost a(d) is the measured stream-byte ladder, utility pa(d)
// the measured PSNR ladder, with the service rate and V recalibrated in
// the bytes domain. params supplies the control-side knobs (KneeSlot,
// ServiceFraction, Slots, and optionally Depths); content-side fields
// come from the profile.
func NewContentScenario(params ScenarioParams, prof *ContentProfile) (*Scenario, error) {
	return experiments.NewContentScenario(params, prof)
}

// ---------------------------------------------------------------------------
// Experiments (scenarios, shared uplinks)
// ---------------------------------------------------------------------------

type (
	// ScenarioParams controls the calibrated Fig. 2 setup.
	ScenarioParams = experiments.ScenarioParams
	// Scenario is the calibrated experimental setup.
	Scenario = experiments.Scenario
	// SharedUplinkParams controls the edge-offload scenario: N devices
	// contending for one emulated uplink whose bandwidth is divided per
	// slot by an Allocator (one device is the single-device offload
	// run).
	SharedUplinkParams = experiments.SharedUplinkParams
	// SharedUplinkResult is a shared-uplink run's per-device trajectories
	// and delivery statistics.
	SharedUplinkResult = experiments.SharedUplinkResult
	// AllocDeviceSpec shapes one device of a heterogeneous fleet
	// (arrival rate and cost scale) in the allocator ablation.
	AllocDeviceSpec = experiments.AllocDeviceSpec
	// MarkovBandwidth is a two-state (good/bad) Markov-modulated
	// capacity process — the Gilbert–Elliott shape of a fading channel.
	// It and the trace and handoff processes below are ServiceProcesses:
	// a capacity under WithService, a unitless factor as
	// SharedUplinkParams.Dynamics or a ModulatedService Factor.
	MarkovBandwidth = netem.MarkovBandwidth
	// TraceBandwidth replays a piecewise-constant recorded capacity
	// trace, optionally wrapping every Period slots.
	TraceBandwidth = netem.TraceBandwidth
	// TracePoint is one step of a bandwidth trace.
	TracePoint = netem.TracePoint
	// HandoffBandwidth models mobility: exponential cell dwells, an
	// outage gap per handoff, and a uniform new-cell capacity scale.
	HandoffBandwidth = netem.HandoffBandwidth
)

// NewTraceBandwidth validates trace points (and an optional wrap
// period) into a replayable piecewise bandwidth process.
func NewTraceBandwidth(points []TracePoint, period int) (*TraceBandwidth, error) {
	return netem.NewTraceBandwidth(points, period)
}

// DefaultMarkovFactor returns the default Gilbert–Elliott fading factor
// chain (×1 good / ×0.3 bad, mean dwells 20 and 4 slots) — a unitless
// multiplier process for ModulatedService composition, shared by the
// CLIs' -net markov class. A nil rng pins the chain to its start state.
func DefaultMarkovFactor(rng *RNG) *MarkovBandwidth { return netem.DefaultMarkovFactor(rng) }

// LoadFactorTrace loads a -net style factor trace. An empty path
// returns the built-in 240-slot daily-load factor trace (dips to ×0.6
// mid-cycle). Otherwise it loads the file — .json as the
// {"period":N,"points":[...]} (or bare array) form, anything else as
// "slot,bytes_per_slot" CSV — normalized to its peak, so measured
// bytes/slot captures and hand-written factor patterns both modulate
// sensibly.
func LoadFactorTrace(path string) (*TraceBandwidth, error) { return netem.LoadFactorTrace(path) }

// SharedUplink runs N devices against one emulated uplink under a
// cancelable context, its serialization bandwidth split per slot by
// params.Allocator and its propagation leg (latency, jitter, loss)
// applied to every delivery. It validates params before building the
// capture; a fixed bandwidth at or above bytes(d_max), which
// V-calibration rejects, fails only once the capture is measured.
func SharedUplink(ctx context.Context, params SharedUplinkParams) (*SharedUplinkResult, error) {
	return experiments.SharedUplink(ctx, params)
}

// HeterogeneousSpecs returns the canonical mixed fleet of the allocator
// ablation: one heavy device among n−1 light ones — the default fleet
// of AxisAllocator cells.
func HeterogeneousSpecs(n int) []AllocDeviceSpec { return experiments.HeterogeneousSpecs(n) }

// NewScenario builds and calibrates the Fig. 2 scenario.
func NewScenario(p ScenarioParams) (*Scenario, error) { return experiments.NewScenario(p) }

// NewByteScenario calibrates the same capture in the bytes domain of the
// uplink runs: cost a(d) is the measured stream size of depth d and the
// service rate the uplink bandwidth a one-device SharedUplink calibrates
// at.
func NewByteScenario(p ScenarioParams) (*Scenario, error) { return experiments.NewByteScenario(p) }

// Package qarv is a Go implementation of "Quality-Aware Real-Time
// Augmented Reality Visualization under Delay Constraints" (Lee, Park,
// Jung, Kim — IEEE ICDCS 2022): a Lyapunov drift-plus-penalty controller
// that picks the Octree depth of AR point-cloud frames each time slot,
// maximizing time-average visualization quality subject to queue
// stability.
//
// The package is a facade over the implementation packages: it re-exports
// the controller (Eq. (3) of the paper), the baseline policies, the
// slotted simulator, the fleet-scale engine, the octree/point-cloud/PLY
// substrates, the synthetic 8i-like dataset generator, and the
// figure-reproduction experiments. The exported names below are the
// supported public API; see README.md for the system tour and quickstart.
//
// # Sessions
//
// Every scenario — the single-device slotted simulation, the shared-budget
// multi-device run, and the edge-offload uplink run — is driven through
// one composable entry point, the Session: a functional-options builder
// that validates once and runs under a context.
//
//	scn, _ := qarv.NewScenario(qarv.ScenarioParams{})
//	s, _ := qarv.NewSession(qarv.WithScenario(scn))
//	rep, _ := s.Run(ctx) // honors ctx cancellation down the slot loops
//	fmt.Println(rep.Verdict, rep.TimeAvgUtility, rep.TimeAvgBacklog)
//
// Options override any scenario default (WithPolicy, WithArrivals,
// WithService, WithCost, WithUtility, WithSlots, WithMaxBacklog), switch
// scenario kind (WithDevices, WithOffload, WithLink), make every
// stochastic component deterministic from one seed (WithSeed), and
// attach per-slot streaming hooks (WithObserver). Sweeps run N sessions
// concurrently with deterministic result ordering through a SessionPool:
//
//	pool := qarv.NewSessionPool(0, s1, s2, s3) // 0 = GOMAXPROCS workers
//	reports, _ := pool.Run(ctx)                // reports[i] belongs to si
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
// AxisArrivalRate, AxisPolicy, AxisAllocator, AxisNetwork, AxisSlots,
// or the generic Axis) into a grid over a calibrated scenario and runs
// every cell concurrently on a pluggable backend — BackendPool in
// process, BackendFleet as a session population per cell — with
// per-cell seed derivation, so reports are byte-identical at any
// worker count:
//
//	sw, _ := qarv.NewSweep(scn,
//	    qarv.AxisV(0.5, 1, 2),
//	    qarv.AxisNetwork(qarv.NetworkStatic(), qarv.NetworkMarkov(0.6)),
//	)
//	sw.Backend = qarv.BackendFleet(1000)
//	rep, _ := sw.Run(ctx)    // one SweepRow per cell, grid order
//	tab, _ := rep.Table()    // trace.Table → CSV/JSON/ASCII
//
// The classic ablations (VSweep, RateSweep, UtilitySweep, NetworkSweep,
// AllocatorSweep, FleetVSweep) are thin wrappers over this engine; see
// cmd/qarvsweep for grids from the command line and MIGRATION.md for
// the mapping.
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
	"io"

	"qarv/internal/alloc"
	"qarv/internal/content"
	"qarv/internal/core"
	"qarv/internal/delay"
	"qarv/internal/experiments"
	"qarv/internal/geom"
	"qarv/internal/netem"
	"qarv/internal/octree"
	"qarv/internal/ply"
	"qarv/internal/pointcloud"
	"qarv/internal/policy"
	"qarv/internal/quality"
	"qarv/internal/queueing"
	"qarv/internal/render"
	"qarv/internal/sim"
	"qarv/internal/synthetic"
	"qarv/internal/trace"
)

// ---------------------------------------------------------------------------
// Core controller (the paper's contribution)
// ---------------------------------------------------------------------------

type (
	// Controller is the drift-plus-penalty depth controller (Eq. (3)).
	Controller = core.Controller
	// ControllerConfig parameterizes NewController.
	ControllerConfig = core.Config
	// Decision is a detailed per-slot control decision.
	Decision = core.Decision
	// Bounds packages the O(1/V)/O(V) theoretical guarantees.
	Bounds = core.Bounds
	// MultiQueueController jointly controls K streams under a shared
	// budget via a virtual queue.
	MultiQueueController = core.MultiQueueController
	// MultiQueueConfig parameterizes NewMultiQueueController.
	MultiQueueConfig = core.MultiQueueConfig
	// AutoTuner adapts V online to hold a target backlog.
	AutoTuner = core.AutoTuner
)

// NewAutoTuner wraps a controller whose V adapts toward targetBacklog.
func NewAutoTuner(cfg ControllerConfig, targetBacklog, gain float64, adjustEvery int) (*AutoTuner, error) {
	return core.NewAutoTuner(cfg, targetBacklog, gain, adjustEvery)
}

// NewController validates the configuration and builds a controller.
func NewController(cfg ControllerConfig) (*Controller, error) { return core.New(cfg) }

// CalibrateV picks V so the control knee lands at the given slot (see
// core.CalibrateV).
func CalibrateV(kneeSlot, serviceRate float64, cfg ControllerConfig) (float64, error) {
	return core.CalibrateV(kneeSlot, serviceRate, cfg)
}

// NewMultiQueueController builds the K-stream shared-budget controller.
func NewMultiQueueController(cfg MultiQueueConfig) (*MultiQueueController, error) {
	return core.NewMultiQueue(cfg)
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

// NewMaxDepthPolicy returns the paper's "only max-Depth" baseline.
func NewMaxDepthPolicy(depths []int) (Policy, error) { return policy.NewMaxDepth(depths) }

// NewMinDepthPolicy returns the paper's "only min-Depth" baseline.
func NewMinDepthPolicy(depths []int) (Policy, error) { return policy.NewMinDepth(depths) }

// NewThresholdPolicy returns the hysteresis baseline.
func NewThresholdPolicy(depths []int, low, high float64) (Policy, error) {
	return policy.NewThreshold(depths, low, high)
}

// NewRandomPolicy returns the uniform-random baseline.
func NewRandomPolicy(depths []int, seed uint64) (Policy, error) {
	return policy.NewRandom(depths, geom.NewRNG(seed))
}

// BestFixedPolicy returns the offline best fixed-depth oracle for a known
// service rate.
func BestFixedPolicy(depths []int, cost CostModel, serviceRate float64) (Policy, error) {
	return policy.BestFixed(depths, cost, serviceRate)
}

// ---------------------------------------------------------------------------
// Quality and delay models
// ---------------------------------------------------------------------------

type (
	// UtilityModel maps depth to the quality pa(d).
	UtilityModel = quality.UtilityModel
	// GeometryReport summarizes geometric fidelity metrics.
	GeometryReport = quality.GeometryReport
	// CostModel maps depth to per-frame workload a(d).
	CostModel = delay.CostModel
	// PointCostModel charges work per rendered point.
	PointCostModel = delay.PointCostModel
	// ServiceProcess yields per-slot device capacity.
	ServiceProcess = delay.ServiceProcess
	// ConstantService is a fixed-capacity service process.
	ConstantService = delay.ConstantService
	// NoisyService draws capacity from a truncated Gaussian.
	NoisyService = delay.NoisyService
	// ModulatedService scales an inner service by a time factor
	// (failure injection).
	ModulatedService = delay.ModulatedService
	// Calibration is a fitted points→time cost relationship.
	Calibration = delay.Calibration
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

// CompareGeometry computes PSNR/Hausdorff fidelity of test against ref.
func CompareGeometry(ref, test *Cloud) (GeometryReport, error) {
	return quality.CompareGeometry(ref, test)
}

// ---------------------------------------------------------------------------
// Point clouds, octrees, PLY, synthetic dataset
// ---------------------------------------------------------------------------

type (
	// Cloud is a point cloud with optional colors and normals.
	Cloud = pointcloud.Cloud
	// Color is an 8-bit RGB color.
	Color = pointcloud.Color
	// Vec3 is a 3-vector.
	Vec3 = geom.Vec3
	// AABB is an axis-aligned bounding box.
	AABB = geom.AABB
	// Octree is a depth-controllable octree over a cloud.
	Octree = octree.Octree
	// LODMode selects LOD point placement.
	LODMode = octree.LODMode
	// Character is a synthetic body preset.
	Character = synthetic.Character
	// BodyConfig controls synthetic body generation.
	BodyConfig = synthetic.Config
	// Pose is a body stance (gait phase, yaw, lean).
	Pose = synthetic.Pose
	// Sequence is an animated multi-frame synthetic capture.
	Sequence = synthetic.Sequence
)

// LOD placement modes.
const (
	LODCentroid    = octree.LODCentroid
	LODVoxelCenter = octree.LODVoxelCenter
)

// BuildOctree constructs an octree of the given max depth over a cloud.
func BuildOctree(c *Cloud, maxDepth int) (*Octree, error) { return octree.Build(c, maxDepth) }

// GenerateBody produces one synthetic voxelized full-body frame.
func GenerateBody(cfg BodyConfig, pose Pose) (*Cloud, error) { return synthetic.Generate(cfg, pose) }

// NewSequence returns an n-frame walking capture generator.
func NewSequence(cfg BodyConfig, frames int) (*Sequence, error) {
	return synthetic.NewSequence(cfg, frames)
}

// BodyPresets lists the four 8i-like character presets.
func BodyPresets() []Character { return synthetic.Presets() }

// CharacterByName returns a preset by name
// (longdress, loot, redandblack, soldier).
func CharacterByName(name string) (Character, error) { return synthetic.ByName(name) }

// WritePLY encodes a cloud in the 8i vertex layout.
// Formats: PLYASCII, PLYBinaryLE, PLYBinaryBE.
func WritePLY(w io.Writer, c *Cloud, format PLYFormat, comments ...string) error {
	return ply.WriteCloud(w, c, format, comments...)
}

// ReadPLY decodes a PLY stream into a cloud.
func ReadPLY(r io.Reader) (*Cloud, error) { return ply.ReadCloud(r) }

// PLYFormat identifies a PLY body encoding.
type PLYFormat = ply.Format

// Supported PLY encodings.
const (
	PLYASCII    = ply.ASCII
	PLYBinaryLE = ply.BinaryLittleEndian
	PLYBinaryBE = ply.BinaryBigEndian
)

// ---------------------------------------------------------------------------
// Queueing and simulation
// ---------------------------------------------------------------------------

type (
	// Backlog is the Lindley-recursion work queue Q(t).
	Backlog = queueing.Backlog
	// ArrivalProcess yields frames per slot.
	ArrivalProcess = queueing.ArrivalProcess
	// DeterministicArrivals is the paper's one-frame-per-slot process.
	DeterministicArrivals = queueing.DeterministicArrivals
	// PoissonArrivals delivers Poisson-distributed frames per slot.
	PoissonArrivals = queueing.PoissonArrivals
	// OnOffArrivals alternates bursts and silence.
	OnOffArrivals = queueing.OnOffArrivals
	// FrameQueue is a timestamped FIFO with partial service.
	FrameQueue = queueing.FrameQueue
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
	// EqualSplit is the information-free budget split (the default).
	EqualSplit = alloc.EqualSplit
	// ProportionalBacklog shares the budget proportionally to backlogs.
	ProportionalBacklog = alloc.ProportionalBacklog
	// MaxWeight serves the longest queues first (work-conserving).
	MaxWeight = alloc.MaxWeight
	// WeightedRoundRobin is a fluid deficit-round-robin split.
	WeightedRoundRobin = alloc.WeightedRoundRobin
	// SlotEvent is one slot's control decision and queue transition,
	// delivered to WithObserver hooks as the loop runs.
	SlotEvent = sim.SlotEvent
)

// Trajectory verdicts.
const (
	VerdictDiverging  = queueing.VerdictDiverging
	VerdictConverged  = queueing.VerdictConverged
	VerdictStabilized = queueing.VerdictStabilized
)

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
	// ContentView configures the camera of view-quality measurement.
	ContentView = content.View
	// ContentQuality selects the utility metric of a content build.
	ContentQuality = content.Quality
	// ContentLadderRow is one measured point of a quality/bytes ladder.
	ContentLadderRow = content.LadderRow
)

// Content quality metrics.
const (
	// ContentQualityGeometry measures D1 geometry PSNR per depth
	// (viewpoint independent). Default.
	ContentQualityGeometry = content.QualityGeometry
	// ContentQualityView measures rendered-image PSNR per depth through
	// the configured camera (viewpoint/distance dependent).
	ContentQualityView = content.QualityView
)

// BuildContent measures a fresh content profile from the configured
// asset: generate (or read) the cloud, build the octree, measure the
// stream-byte ladder and the PSNR ladder. Deterministic per config.
// Prefer LoadContent, which memoizes.
func BuildContent(cfg ContentConfig) (*ContentProfile, error) { return content.Build(cfg) }

// LoadContent returns the profile for cfg from the in-process content
// cache, building it on first use. The returned profile is immutable
// and shared; each distinct configuration builds exactly once per
// process.
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
// Experiments (paper figures + ablations)
// ---------------------------------------------------------------------------

type (
	// ScenarioParams controls the calibrated Fig. 2 setup.
	ScenarioParams = experiments.ScenarioParams
	// Scenario is the calibrated experimental setup.
	Scenario = experiments.Scenario
	// Fig1Row is one depth's Fig. 1 fidelity row.
	Fig1Row = experiments.Fig1Row
	// Fig1Config parameterizes the Fig. 1 reproduction.
	Fig1Config = experiments.Fig1Config
	// Fig2Result bundles the three compared Fig. 2 runs.
	Fig2Result = experiments.Fig2Result
	// OffloadParams controls the edge-offload scenario.
	OffloadParams = experiments.OffloadParams
	// OffloadResult is an edge-offload run's trajectory and delivery
	// statistics.
	OffloadResult = experiments.OffloadResult
	// SharedUplinkParams controls the shared-uplink multi-device offload
	// scenario: N devices contending for one emulated uplink whose
	// bandwidth is divided per slot by an Allocator.
	SharedUplinkParams = experiments.SharedUplinkParams
	// SharedUplinkResult is a shared-uplink run's per-device trajectories
	// and delivery statistics.
	SharedUplinkResult = experiments.SharedUplinkResult
	// AllocDeviceSpec shapes one device of a heterogeneous fleet
	// (arrival rate and cost scale) in the allocator ablation.
	AllocDeviceSpec = experiments.AllocDeviceSpec
	// AllocatorSweepRow summarizes one allocator's run over the fleet.
	AllocatorSweepRow = experiments.AllocatorSweepRow
	// FleetVSweepRow is one V point of the fleet-scale V ablation.
	FleetVSweepRow = experiments.FleetVSweepRow
	// MultiDeviceRow summarizes one device of a shared-service run.
	MultiDeviceRow = experiments.MultiDeviceRow
	// Link is a FIFO uplink with bandwidth/latency/jitter/loss.
	Link = netem.Link
	// LinkConfig parameterizes NewLink.
	LinkConfig = netem.LinkConfig
	// TokenBucket polices admission at a sustained rate.
	TokenBucket = netem.TokenBucket
	// BandwidthProcess yields a link's serialization capacity per slot —
	// the time-varying generalization of LinkConfig.BytesPerSlot. Every
	// implementation in the library doubles as a ServiceProcess, so the
	// same processes drive WithService and fleet Profile.NewService.
	BandwidthProcess = netem.BandwidthProcess
	// LinkDynamics binds a BandwidthProcess to an offload uplink (see
	// WithLinkDynamics).
	LinkDynamics = netem.LinkDynamics
	// ConstantBandwidth is the degenerate fixed-rate process.
	ConstantBandwidth = netem.ConstantBandwidth
	// MarkovBandwidth is a two-state (good/bad) Markov-modulated
	// capacity process — the Gilbert–Elliott shape of a fading channel.
	MarkovBandwidth = netem.MarkovBandwidth
	// TraceBandwidth replays a piecewise-constant recorded capacity
	// trace, optionally wrapping every Period slots.
	TraceBandwidth = netem.TraceBandwidth
	// TracePoint is one step of a bandwidth trace.
	TracePoint = netem.TracePoint
	// HandoffBandwidth models mobility: exponential cell dwells, an
	// outage gap per handoff, and a uniform new-cell capacity scale.
	HandoffBandwidth = netem.HandoffBandwidth
	// NetworkSweepRow is one volatility point of the dynamic-network
	// ablation.
	NetworkSweepRow = experiments.NetworkSweepRow
	// Table is an exportable set of time series (CSV/JSON/ASCII chart).
	Table = trace.Table
)

// NewLink builds a network link emulator.
func NewLink(cfg LinkConfig) (*Link, error) { return netem.NewLink(cfg) }

// NewTraceBandwidth validates trace points (and an optional wrap
// period) into a replayable piecewise bandwidth process.
func NewTraceBandwidth(points []TracePoint, period int) (*TraceBandwidth, error) {
	return netem.NewTraceBandwidth(points, period)
}

// LoadBandwidthTrace reads a bandwidth trace file, dispatching on the
// extension: .json loads the {"period":N,"points":[...]} (or bare
// array) form, anything else the "slot,bytes_per_slot" CSV form.
func LoadBandwidthTrace(path string) (*TraceBandwidth, error) {
	return netem.LoadTraceFile(path)
}

// DefaultMarkovFactor returns the default Gilbert–Elliott fading factor
// chain (×1 good / ×0.3 bad, mean dwells 20 and 4 slots) — a unitless
// multiplier process for ModulatedService composition, shared by the
// CLIs' -net markov class. A nil rng pins the chain to its start state.
func DefaultMarkovFactor(rng *RNG) *MarkovBandwidth { return netem.DefaultMarkovFactor(rng) }

// DefaultHandoffFactor returns the default mobility factor process
// (mean 250-slot cell dwells, 4-slot outages, new-cell scale in
// [0.7, 1.2]) — the CLIs' -net handoff class. A nil rng never hands off.
func DefaultHandoffFactor(rng *RNG) *HandoffBandwidth { return netem.DefaultHandoffFactor(rng) }

// DefaultDiurnalTrace returns the built-in 240-slot daily-load factor
// trace (dips to ×0.6 mid-cycle) — the CLIs' file-less -net trace class.
func DefaultDiurnalTrace() *TraceBandwidth { return netem.DefaultDiurnalTrace() }

// LoadFactorTrace loads a -net style factor trace: an empty path
// returns DefaultDiurnalTrace, anything else loads the file
// (LoadBandwidthTrace) normalized to its peak, so measured bytes/slot
// captures and hand-written factor patterns both modulate sensibly.
func LoadFactorTrace(path string) (*TraceBandwidth, error) { return netem.LoadFactorTrace(path) }

// NetworkSweep runs the dynamic-network ablation: a fleet per
// volatility point, every session drawing its capacity from a
// mean-preserving Markov (good/bad) chain around the calibrated service
// rate. Mean utility degrades and tail backlog grows monotonically as
// volatility rises. Zero sessions/slots take defaults.
func NetworkSweep(s *Scenario, volatilities []float64, sessions, slots int, seed uint64) ([]NetworkSweepRow, error) {
	return experiments.NetworkSweep(s, volatilities, sessions, slots, seed)
}

// SharedUplink runs N devices against one emulated uplink, its
// serialization bandwidth split per slot by params.Allocator and its
// propagation leg (latency, jitter, loss) applied to every delivery.
func SharedUplink(params SharedUplinkParams) (*SharedUplinkResult, error) {
	return experiments.SharedUplink(params)
}

// AllocatorSweep runs the same heterogeneous fleet under each allocator
// and reports per-device stability — the ablation showing the shared
// budget's split policy is itself the lever. Zero-value
// specs/budget/slots/allocators take defaults (see HeterogeneousSpecs).
func AllocatorSweep(s *Scenario, specs []AllocDeviceSpec, budget float64, slots int, allocators []Allocator) ([]AllocatorSweepRow, error) {
	return experiments.AllocatorSweep(s, specs, budget, slots, allocators)
}

// HeterogeneousSpecs returns the canonical mixed fleet of the allocator
// ablation: one heavy device among n−1 light ones.
func HeterogeneousSpecs(n int) []AllocDeviceSpec { return experiments.HeterogeneousSpecs(n) }

// FleetVSweep runs the O(1/V)/O(V) ablation at fleet scale: a stochastic
// population (Poisson arrivals, noisy service) per V point, summarized
// through the fleet engine's streaming quantile sketches. Zero
// sessions/slots take defaults; see Scenario.FleetProfile to build
// custom fleet mixes from a calibrated scenario.
func FleetVSweep(s *Scenario, factors []float64, sessions, slots int, seed uint64) ([]FleetVSweepRow, error) {
	return experiments.FleetVSweep(s, factors, sessions, slots, seed)
}

type (
	// RenderConfig controls a software splat render pass.
	RenderConfig = render.Config
	// RenderCamera is a pinhole camera.
	RenderCamera = render.Camera
	// RenderImage is a rendered framebuffer with depth.
	RenderImage = render.Image
	// RenderLadderRow is one depth of the view-domain quality ladder.
	RenderLadderRow = experiments.RenderLadderRow
	// RenderLadderConfig parameterizes RenderLadder.
	RenderLadderConfig = experiments.RenderLadderConfig
)

// RenderCloud splats a point cloud into a framebuffer.
func RenderCloud(c *Cloud, cfg RenderConfig) (*RenderImage, error) { return render.Render(c, cfg) }

// DefaultCamera frames a subject bounding box from 3 m away.
func DefaultCamera(subject AABB) RenderCamera { return render.DefaultCamera(subject) }

// RenderLadder measures per-depth image PSNR of the LOD ladder and
// returns the rows plus a view-domain utility model.
func RenderLadder(cfg RenderLadderConfig) ([]RenderLadderRow, UtilityModel, error) {
	return experiments.RenderLadder(cfg)
}

// NewScenario builds and calibrates the Fig. 2 scenario.
func NewScenario(p ScenarioParams) (*Scenario, error) { return experiments.NewScenario(p) }

// Fig1 regenerates the Fig. 1 per-depth resolution/fidelity rows.
func Fig1(cfg Fig1Config) ([]Fig1Row, error) { return experiments.Fig1(cfg) }

// Fig2 runs the paper's three controls over a calibrated scenario.
func Fig2(s *Scenario) (*Fig2Result, error) { return experiments.Fig2(s) }

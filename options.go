package qarv

import "qarv/internal/sim"

// Option configures a Session. Options are applied in order by
// NewSession, which then resolves scenario defaults and validates the
// assembled configuration exactly once.
type Option func(*sessionConfig)

// sessionConfig is the raw accumulation of options before NewSession
// resolves and validates it into a runnable Session.
type sessionConfig struct {
	scenario  *Scenario
	policy    Policy
	arrivals  ArrivalProcess
	service   ServiceProcess
	cost      CostModel
	utility   UtilityModel
	slots     int
	slotsSet  bool
	content   *ContentProfile
	devices   []Device
	allocator Allocator
	observers []sim.Observer
	seed      uint64
	seedSet   bool
	metrics   *MetricsRegistry
	recorder  *FlightRecorder
}

// WithScenario seeds the session from a calibrated Scenario: its cost,
// utility, service rate, horizon, and (unless overridden by WithPolicy)
// its drift-plus-penalty controller. Any other option applied alongside
// overrides the scenario's corresponding field.
func WithScenario(s *Scenario) Option {
	return func(c *sessionConfig) { c.scenario = s }
}

// WithContent grounds the session in a measured content profile
// (LoadContent): NewSession calibrates a scenario whose
// cost a(d) is the profile's measured stream-byte ladder and whose
// utility pa(d) is its measured PSNR ladder (NewContentScenario), then
// resolves it exactly like WithScenario. A scenario passed alongside
// supplies the control-side knobs (KneeSlot, ServiceFraction, Slots);
// the candidate depths come from the profile's measured ladder. Other
// options still override the resolved defaults.
func WithContent(p *ContentProfile) Option {
	return func(c *sessionConfig) { c.content = p }
}

// WithPolicy sets the depth-selection policy driving the run.
func WithPolicy(p Policy) Option {
	return func(c *sessionConfig) { c.policy = p }
}

// WithArrivals sets the frame arrival process (default: one frame per
// slot, the paper's setting, when a scenario supplies the rest).
func WithArrivals(a ArrivalProcess) Option {
	return func(c *sessionConfig) { c.arrivals = a }
}

// WithService sets the per-slot service (device capacity) process.
func WithService(s ServiceProcess) Option {
	return func(c *sessionConfig) { c.service = s }
}

// WithCost sets the depth→workload cost model a(d).
func WithCost(m CostModel) Option {
	return func(c *sessionConfig) { c.cost = m }
}

// WithUtility sets the depth→quality utility model pa(d).
func WithUtility(u UtilityModel) Option {
	return func(c *sessionConfig) { c.utility = u }
}

// WithSlots sets the simulation horizon T.
func WithSlots(n int) Option {
	return func(c *sessionConfig) { c.slots = n; c.slotsSet = true }
}

// WithDevices switches the session to a shared-service multi-device run:
// each device brings its own policy, cost, utility, and arrivals, and
// the session's service budget is split among them by the allocator
// (default: an equal, information-free split — see WithAllocator).
func WithDevices(devs ...Device) Option {
	return func(c *sessionConfig) { c.devices = append(c.devices, devs...) }
}

// WithAllocator selects how a multi-device session splits the shared
// per-slot edge budget across devices from their observed backlogs:
// the equal split (the default — the paper's information-free
// baseline), NewMaxWeight (longest queue first, work-conserving),
// NewWeightedRoundRobin, or any AllocatorByName name. Only valid
// together with WithDevices. Allocators may carry per-run state; build
// one session per run for reproducible sweeps.
func WithAllocator(a Allocator) Option {
	return func(c *sessionConfig) { c.allocator = a }
}

// WithSeed makes the session's stochastic components deterministic from
// one seed: NewSession derives a splittable RNG from it and reseeds, in
// a fixed documented order, every resolved component that implements
// Reseed(*RNG) — PoissonArrivals, NoisyService, the network processes,
// ModulatedService (which passes child streams to its Inner and
// Factor), and the random baseline policy among the built-ins (for sim
// sessions: policy, arrivals, service; for multi sessions: the shared
// service, then each device's policy and arrivals in device order).
//
// Two sessions built with the same options and the same seed produce
// byte-identical reports. Reseeding happens once, at NewSession — a
// single session Run twice continues its RNG streams, so build one
// session per run for reproducible sweeps.
func WithSeed(seed uint64) Option {
	return func(c *sessionConfig) { c.seed = seed; c.seedSet = true }
}

// WithObserver registers a per-slot hook invoked synchronously from the
// run loop with every slot's decision and queue transition — streaming
// and tracing consumers subscribe here instead of post-processing full
// trajectories. Multiple observers are invoked in registration order,
// after the session's own telemetry (WithTelemetry, WithFlightRecorder)
// has recorded the slot; a nil fn is ignored.
func WithObserver(fn func(SlotEvent)) Option {
	return func(c *sessionConfig) { c.observers = append(c.observers, fn) }
}

// WithTelemetry attaches a metrics registry: the session's telemetry,
// an observer of the same slot stream WithObserver hooks see, folds
// per-slot counters and sketch-backed histograms (sim_* series, plus
// alloc_* for multi sessions) into r. Telemetry never changes what the
// session computes — reports are byte-identical with and without it —
// and a session run with a nil registry pays only a pointer check per
// slot. Registries merge losslessly (Merge) and snapshot
// deterministically (Snapshot), so one registry may be shared across
// sessions or kept per run and folded afterwards.
func WithTelemetry(r *MetricsRegistry) Option {
	return func(c *sessionConfig) { c.metrics = r }
}

// WithFlightRecorder attaches a flight recorder: a fixed-size ring that
// captures slot-stamped span/event records from the run loop (slot
// phases, depth changes, drops, allocator decisions, link losses)
// for export as JSON or a Chrome trace_event file. Like WithTelemetry,
// recording never perturbs the run. The recorder is concurrency-safe
// and may be shared across sessions; its ring keeps the newest records
// once full (see Dropped).
func WithFlightRecorder(fr *FlightRecorder) Option {
	return func(c *sessionConfig) { c.recorder = fr }
}

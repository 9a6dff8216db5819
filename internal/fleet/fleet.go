// Package fleet simulates fleets of independent AR device sessions at
// 10k–1M scale — the engine behind the ROADMAP's "millions of users"
// north star. The paper's drift-plus-penalty controller is explicitly
// distributed (each device decides from its own backlog only), so a
// fleet is N independent slot loops, each stepping the same sim.Kernel
// as a single sim run; what makes scale hard is accounting, not
// coupling. The engine therefore:
//
//   - stripes N device "seats" across GOMAXPROCS-bounded shards, each
//     shard running its seats' sessions sequentially (one live session
//     per shard at any instant, so resident memory is O(shards ×
//     frames-in-flight), not O(sessions) and never O(sessions × slots);
//     note frames in flight track the live session's backlog — bound
//     overloaded classes with Profile.MaxBacklog to keep a diverging
//     queue from accumulating unserved frames over a long horizon);
//   - models device churn as a per-slot departure hazard: a departing
//     session is replaced by a fresh arrival (new profile draw, new RNG
//     stream) occupying the seat for the rest of the horizon;
//   - draws each session's class from a weighted Profile mix
//     (policy, cost/utility models, arrival process, service process —
//     heterogeneous fleets in one run);
//   - accumulates sojourn/backlog/utility distributions in mergeable
//     fixed-memory quantile sketches (stats.QuantileSketch): the
//     backlog with one Add per slot, the utility and the sojourns as
//     counts per depth and per sojourn, folded into their sketches when
//     shards merge (a slot's utility is one of a few per-depth values,
//     and a sojourn a whole number of slots, so one increment replaces
//     a logarithmic sketch index and the sketches come out the same);
//   - classifies each session's stability from a fixed-memory
//     downsampled trajectory (stats.Decimator), then merges shard
//     accumulators into one Report;
//   - is deterministic for a given Spec and Seed: every seat derives
//     its RNG stream from (Seed, seat) alone, and merge order is fixed,
//     so repeated runs are byte-identical apart from the wall-clock
//     fields (Elapsed, DeviceSlotsPerSec). Across *different* shard
//     counts, every simulated value, counter, quantile-sketch bucket,
//     and verdict is identical too; only the floating-point sums backing
//     Mean and DroppedWork can differ in the last bits, because shard
//     boundaries regroup non-associative float additions.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"qarv/internal/delay"
	"qarv/internal/geom"
	"qarv/internal/obs"
	"qarv/internal/policy"
	"qarv/internal/quality"
	"qarv/internal/queueing"
	"qarv/internal/sim"
	"qarv/internal/stats"
)

// Profile describes one device class of the fleet mix. Policies and
// stochastic processes are built per session through factories — a
// policy or a seeded process shared across concurrent sessions would
// race and correlate streams — while the cost and utility models are
// immutable lookup tables safely shared by every shard.
type Profile struct {
	// Name labels the class in the per-profile report breakdown.
	Name string
	// Weight is the class's share of the mix (relative, must be > 0).
	Weight float64
	// NewPolicy builds a fresh depth policy for one session. Policies may
	// be stateful (Threshold, Random), hence the factory.
	NewPolicy func(rng *geom.RNG) (policy.Policy, error)
	// Cost maps the chosen depth to per-frame workload a(d).
	Cost delay.CostModel
	// Utility scores the chosen depth pa(d).
	Utility quality.UtilityModel
	// NewArrivals builds the session's frame arrival process; nil takes
	// the paper's one-frame-per-slot process.
	NewArrivals func(rng *geom.RNG) queueing.ArrivalProcess
	// NewService builds the session's per-slot capacity process.
	NewService func(rng *geom.RNG) delay.ServiceProcess
	// MaxBacklog, when positive, bounds each session's queue (overflow
	// drops work, exactly as in sim runs).
	MaxBacklog float64
}

// Spec describes one fleet run.
type Spec struct {
	// Sessions is the concurrent fleet population (the number of device
	// seats). With churn, the number of sessions simulated exceeds this:
	// every departure backfills its seat with a fresh arrival.
	Sessions int
	// Slots is the horizon each seat is simulated for; total work is
	// exactly Sessions × Slots device-slots regardless of churn.
	Slots int
	// Shards bounds the worker parallelism; <= 0 takes GOMAXPROCS.
	// The report is identical for every shard count.
	Shards int
	// Churn is the per-slot probability that a live session departs
	// (geometric lifetimes with mean 1/Churn slots); 0 disables churn.
	// Must lie in [0, 1).
	Churn float64
	// Profiles is the weighted device-class mix (at least one).
	Profiles []Profile
	// Seed drives every stochastic choice — profile draws, lifetimes,
	// and the RNG streams handed to the per-session factories.
	Seed uint64
	// Accuracy is the quantile sketches' relative error bound; <= 0
	// takes stats.DefaultSketchAccuracy (1%). Must be finite and below 1.
	Accuracy float64
	// Metrics, when non-nil, enables telemetry: each shard accumulates
	// the fleet_* series into a private registry; the shard registries
	// are merged in seat order into this one after the run, and the
	// merged snapshot lands on Report.Metrics. Because every fleet
	// instrument is an exact integer count or integer-valued histogram,
	// the merged state is byte-identical across shard counts.
	Metrics *obs.Registry
	// Recorder, when non-nil, receives session lifecycle records (cat
	// "fleet": "session" on arrival, "depart" on churn departure), one
	// track per seat. Shards share the recorder; it is
	// concurrency-safe, but ring eviction order under contention is
	// scheduling-dependent, so traces are diagnostics, not reports.
	Recorder *obs.FlightRecorder
}

// Spec validation errors.
var (
	ErrNoSessions  = errors.New("fleet: session count must be positive")
	ErrBadSlots    = errors.New("fleet: slot count must be positive")
	ErrBadChurn    = errors.New("fleet: churn must lie in [0, 1)")
	ErrBadAccuracy = errors.New("fleet: sketch accuracy must be finite and below 1")
	ErrNoProfiles  = errors.New("fleet: at least one profile required")
	ErrBadWeight   = errors.New("fleet: profile weight must be positive")
	ErrNilPolicy   = errors.New("fleet: profile needs a NewPolicy factory")
	ErrNilService  = errors.New("fleet: profile needs a NewService factory")
	ErrNilCost     = errors.New("fleet: profile needs a cost model")
	ErrNilUtility  = errors.New("fleet: profile needs a utility model")
)

// Validate checks the spec without running it.
func (s *Spec) Validate() error {
	switch {
	case s.Sessions <= 0:
		return fmt.Errorf("%w: %d", ErrNoSessions, s.Sessions)
	case s.Slots <= 0:
		return fmt.Errorf("%w: %d", ErrBadSlots, s.Slots)
	case s.Churn < 0 || s.Churn >= 1 || math.IsNaN(s.Churn):
		return fmt.Errorf("%w: %v", ErrBadChurn, s.Churn)
	case s.Accuracy >= 1 || math.IsNaN(s.Accuracy) || math.IsInf(s.Accuracy, 0):
		return fmt.Errorf("%w: %v", ErrBadAccuracy, s.Accuracy)
	case len(s.Profiles) == 0:
		return ErrNoProfiles
	}
	for i, p := range s.Profiles {
		switch {
		case p.Weight <= 0 || math.IsNaN(p.Weight) || math.IsInf(p.Weight, 0):
			return fmt.Errorf("profile %d (%s): %w: %v", i, p.Name, ErrBadWeight, p.Weight)
		case p.NewPolicy == nil:
			return fmt.Errorf("profile %d (%s): %w", i, p.Name, ErrNilPolicy)
		case p.NewService == nil:
			return fmt.Errorf("profile %d (%s): %w", i, p.Name, ErrNilService)
		case p.Cost == nil:
			return fmt.Errorf("profile %d (%s): %w", i, p.Name, ErrNilCost)
		case p.Utility == nil:
			return fmt.Errorf("profile %d (%s): %w", i, p.Name, ErrNilUtility)
		}
	}
	return nil
}

// shards resolves the worker count.
func (s *Spec) shards() int {
	n := s.Shards
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > s.Sessions {
		n = s.Sessions
	}
	return n
}

// SeatSeed derives the RNG seed of one device seat from the fleet seed —
// a SplitMix64 finalizer over (seed, seat), so every seat's stream is
// independent of how seats are partitioned into shards. Exported so
// tests can reproduce a seat's exact session composition out-of-band.
func SeatSeed(seed uint64, seat int) uint64 {
	z := seed + 0x9e3779b97f4a7c15*uint64(seat+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// trajCap bounds the per-session downsampled-trajectory buffer used for
// stability classification. 256 samples resolve the Fig. 2(a) shapes
// (knee, divergence slope) while keeping per-session state constant.
const trajCap = 256

// Run executes the fleet.
func Run(spec Spec) (*Report, error) { return RunContext(context.Background(), spec) }

// RunContext executes the fleet under a context: every shard polls ctx
// once per queueing.PollEvery device-slots and the first cancellation or
// profile-factory error aborts the whole run.
func RunContext(ctx context.Context, spec Spec) (*Report, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	nShards := spec.shards()

	// Cumulative weights for the per-session profile draw.
	cum := make([]float64, len(spec.Profiles))
	total := 0.0
	for i, p := range spec.Profiles {
		total += p.Weight
		cum[i] = total
	}

	//qarv:allow nondeterminism Elapsed is reporting-only bench metadata; no simulated state derives from it
	start := time.Now()
	accums := make([]*fleetAccum, nShards)
	errs := make([]error, nShards)
	var wg sync.WaitGroup
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	for w := 0; w < nShards; w++ {
		// Contiguous seat ranges: seat axis split as evenly as possible.
		lo := w * spec.Sessions / nShards
		hi := (w + 1) * spec.Sessions / nShards
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			acc, err := runShard(ctx, &spec, cum, lo, hi)
			accums[w], errs[w] = acc, err
			if err != nil {
				cancel()
			}
		}(w, lo, hi)
	}
	wg.Wait()
	// Prefer a root-cause error over the cancellations it fanned out: a
	// shard that hits a profile-factory error cancels the shared context,
	// so sibling shards abort with derived context.Canceled errors that
	// would otherwise mask the real failure.
	var firstErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			return nil, err
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}

	merged := newFleetAccum(&spec)
	for _, acc := range accums {
		if err := merged.merge(acc); err != nil {
			return nil, err
		}
	}
	//qarv:allow nondeterminism Elapsed is reporting-only bench metadata; no simulated state derives from it
	elapsed := time.Since(start)
	rep := merged.report(&spec, nShards, elapsed)
	if spec.Metrics != nil {
		addTotals(merged.metrics, &rep.Total)
		rep.Metrics = merged.metrics.Snapshot()
		if err := spec.Metrics.Merge(merged.metrics); err != nil {
			return nil, fmt.Errorf("fleet: merging telemetry: %w", err)
		}
	}
	return rep, nil
}

// runShard simulates seats [lo, hi) sequentially, accumulating into one
// shard-local fleetAccum (no locks: shards share only immutable state).
func runShard(ctx context.Context, spec *Spec, cum []float64, lo, hi int) (*fleetAccum, error) {
	acc := newFleetAccum(spec)
	cancel := queueing.NewCancelCheck(ctx, 0)
	sess := newSessionRunner() // reused across sessions (buffers recycled)
	// Nil (a no-op) when telemetry is off; the recorder is nil-safe too.
	lifetime := acc.metrics.Histogram(MetricSessionLifetime)
	for seat := lo; seat < hi; seat++ {
		rng := geom.NewRNG(SeatSeed(spec.Seed, seat))
		slot := 0
		for slot < spec.Slots {
			// Per-session draws, in fixed order so the stream layout is
			// identical whatever the profile does with its RNGs: profile
			// pick, then arrivals/service/policy child streams, then (with
			// churn enabled) the lifetime.
			pi := pickProfile(rng, cum)
			prof := &spec.Profiles[pi]
			arrRNG, svcRNG, polRNG := rng.Split(), rng.Split(), rng.Split()

			life := spec.Slots - slot
			departs := false
			if spec.Churn > 0 {
				if l := geometricLifetime(rng, spec.Churn); l < life {
					life, departs = l, true
				}
			}

			if err := sess.reset(prof, arrRNG, svcRNG, polRNG); err != nil {
				return nil, fmt.Errorf("fleet: seat %d profile %q: %w", seat, prof.Name, err)
			}
			pa, depths := acc.profile(prof.Name), &acc.depthSlots[pi]
			spec.Recorder.Event(int64(slot), "fleet", "session", int64(seat), float64(pi))
			for t := 0; t < life; t++ {
				if err := cancel.Check(); err != nil {
					return nil, fmt.Errorf("fleet: canceled at seat %d slot %d: %w", seat, slot+t, err)
				}
				sess.step(t, pa, depths)
			}
			sess.finish(pa, departs)
			lifetime.Observe(float64(life))
			if departs {
				spec.Recorder.Event(int64(slot+life), "fleet", "depart", int64(seat), float64(life))
			}
			slot += life
		}
	}
	return acc, nil
}

// pickProfile draws a profile index from the cumulative weight table.
func pickProfile(rng *geom.RNG, cum []float64) int {
	if len(cum) == 1 {
		rng.Float64() // keep the stream layout uniform across mixes
		return 0
	}
	x := rng.Float64() * cum[len(cum)-1]
	for i, c := range cum {
		if x < c {
			return i
		}
	}
	return len(cum) - 1
}

// geometricLifetime draws a session lifetime (in slots, ≥ 1) under a
// per-slot departure hazard c ∈ (0, 1). A hazard too small for 1-c to
// differ from 1 in float64 never departs: the draw is still taken so
// the seat's stream layout does not depend on c.
func geometricLifetime(rng *geom.RNG, c float64) int {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	lc := math.Log(1 - c)
	if lc == 0 {
		return math.MaxInt
	}
	l := 1 + int(math.Floor(math.Log(u)/lc))
	if l < 1 {
		l = 1
	}
	return l
}

// sessionRunner is one shard's live session: the sim.Kernel it steps,
// its service process, the fixed-size decimated trajectory, and the
// slot event the kernel refills every slot. Slots stream into the
// shard's sketches and counts instead of per-slot slices.
type sessionRunner struct {
	k       sim.Kernel
	service delay.ServiceProcess
	traj    *stats.Decimator
	ev      sim.SlotEvent
}

func newSessionRunner() *sessionRunner {
	return &sessionRunner{traj: stats.NewDecimator(trajCap)}
}

// reset arms the runner for a fresh session of the given profile.
func (r *sessionRunner) reset(p *Profile, arrRNG, svcRNG, polRNG *geom.RNG) error {
	var arrivals queueing.ArrivalProcess
	if p.NewArrivals != nil {
		arrivals = p.NewArrivals(arrRNG)
	} else {
		arrivals = &queueing.DeterministicArrivals{PerSlot: 1}
	}
	r.service = p.NewService(svcRNG)
	pol, err := p.NewPolicy(polRNG)
	if err != nil {
		return err
	}
	r.k.Reset(sim.Device{
		Policy: pol, Cost: p.Cost, Utility: p.Utility,
		Arrivals: arrivals, MaxBacklog: p.MaxBacklog,
	})
	r.traj.Reset()
	return nil
}

// step advances the session one (session-local) slot, streaming the
// slot's observations into the profile accumulator and the depth
// counts of the session's profile index. The backlog goes to its
// sketch; the depth and the sojourns are counted (see profileAccum).
func (r *sessionRunner) step(t int, pa *profileAccum, depths *depthCounts) {
	s := &r.ev
	r.k.Step(t, r.service.Service(t), s)
	r.traj.Add(s.Backlog)
	pa.backlog.Add(s.Backlog)
	if d := uint(s.Depth); d < countedDepths {
		depths[d]++
	} else {
		pa.utility.Add(s.Utility)
	}
	if s.Utility > 0 { // Add's rule: negatives count as zero, NaN not at all
		pa.utilitySum += s.Utility
	}
	pa.framesDropped += int64(s.DroppedFrames)
	pa.framesCompleted += int64(len(s.Completed))
	for i := range s.Completed {
		if so := s.Completed[i].Sojourn; so < len(pa.sojourns) {
			pa.sojourns[so]++
		} else {
			pa.countSojourn(so)
		}
	}
	pa.deviceSlots++
}

// finish closes the session: classify its (decimated) backlog trajectory
// and fold the session-level counters into the profile accumulator.
func (r *sessionRunner) finish(pa *profileAccum, departed bool) {
	pa.sessions++
	if departed {
		pa.departures++
	}
	pa.droppedWork += r.k.TotalDropped()
	v, err := queueing.ClassifyTrajectory(r.traj.Samples(), 0)
	if err != nil {
		pa.verdicts.Unclassified++
		return
	}
	pa.verdicts.Add(v)
}

package fleet

import (
	"fmt"
	"sort"
	"time"

	"qarv/internal/obs"
	"qarv/internal/queueing"
	"qarv/internal/stats"
)

// QuantileSummary condenses one metric's fleet-wide distribution out of
// a quantile sketch: exact count/mean/min/max plus the P50/P95/P99
// estimates (each within the spec's Accuracy of the true quantile).
type QuantileSummary struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

func summarize(s *stats.QuantileSketch) QuantileSummary {
	return QuantileSummary{
		Count: s.Count(),
		Mean:  s.Mean(),
		Min:   s.Min(),
		Max:   s.Max(),
		P50:   s.Quantile(0.50),
		P95:   s.Quantile(0.95),
		P99:   s.Quantile(0.99),
	}
}

// VerdictCounts tallies per-session stability classifications
// (queueing.ClassifyTrajectory over each session's decimated backlog
// trajectory). Unclassified counts sessions too short to judge.
type VerdictCounts struct {
	Diverging    int64 `json:"diverging"`
	Converged    int64 `json:"converged"`
	Stabilized   int64 `json:"stabilized"`
	Unclassified int64 `json:"unclassified"`
}

// Add counts one classified session. A verdict other than diverging,
// converged or stabilized counts as unclassified.
func (v *VerdictCounts) Add(verdict queueing.Verdict) {
	switch verdict {
	case queueing.VerdictDiverging:
		v.Diverging++
	case queueing.VerdictConverged:
		v.Converged++
	case queueing.VerdictStabilized:
		v.Stabilized++
	default:
		v.Unclassified++
	}
}

// merge folds o into v.
func (v *VerdictCounts) merge(o VerdictCounts) {
	v.Diverging += o.Diverging
	v.Converged += o.Converged
	v.Stabilized += o.Stabilized
	v.Unclassified += o.Unclassified
}

// ProfileReport is the merged accounting of every session of one device
// class (or of the whole fleet, for Report.Total).
type ProfileReport struct {
	Name string `json:"name"`
	// Sessions simulated (> seat count when churn replaced departures)
	// and how many of them departed early.
	Sessions   int64 `json:"sessions"`
	Departures int64 `json:"departures"`
	// DeviceSlots is the total simulated device-time in slots.
	DeviceSlots int64 `json:"device_slots"`
	// Frame accounting across all sessions.
	FramesCompleted int64   `json:"frames_completed"`
	FramesDropped   int64   `json:"frames_dropped"`
	DroppedWork     float64 `json:"dropped_work"`
	// Sojourn is the distribution of completed frames' queueing+service
	// delay (slots); Backlog and Utility are the distributions of the
	// per-slot backlog Q(t) and chosen quality pa(d(t)).
	Sojourn QuantileSummary `json:"sojourn"`
	Backlog QuantileSummary `json:"backlog"`
	Utility QuantileSummary `json:"utility"`
	// Verdicts tallies session stability classifications.
	Verdicts VerdictCounts `json:"verdicts"`
}

// Report is the merged result of one fleet run. Every field except
// Elapsed and DeviceSlotsPerSec is deterministic for a given Spec and
// Seed and independent of scheduling. Across different shard counts,
// counters, quantiles, min/max, and verdicts are identical as well;
// the float-sum-backed Mean and DroppedWork fields can differ in the
// last bits because shard boundaries regroup float additions (see the
// package comment).
type Report struct {
	// Echo of the run shape.
	Seats  int     `json:"seats"`
	Slots  int     `json:"slots"`
	Shards int     `json:"shards"`
	Churn  float64 `json:"churn"`
	Seed   uint64  `json:"seed"`
	// Total aggregates the whole fleet; PerProfile breaks it down by
	// device class (sorted by profile name).
	Total      ProfileReport   `json:"total"`
	PerProfile []ProfileReport `json:"per_profile"`
	// Throughput of the engine itself (wall clock; not deterministic).
	Elapsed           time.Duration `json:"elapsed_ns"`
	DeviceSlotsPerSec float64       `json:"device_slots_per_sec"`
	// Metrics is the merged telemetry snapshot when Spec.Metrics was
	// set; nil otherwise. Deliberately excluded from the report's JSON
	// so telemetry-on and telemetry-off reports marshal byte-identically
	// — export it separately with Snapshot.EncodeJSON or WriteProm.
	Metrics *obs.Snapshot `json:"-"`
}

// sojournCountCap bounds profileAccum.sojourns: sojourns of this many
// slots or more go to the sojourn sketch one Add each.
const sojournCountCap = 4096

// profileAccum is one device class's streaming accumulator within a
// shard: counters plus the three mergeable sketches. All O(1) memory.
//
// Two of the three per-slot observations reach their sketches as
// counts, folded in at merge time (see fleetAccum.depthSlots for the
// utility). A sojourn is a whole number of slots, so completed frames
// count per sojourn in sojourns. The folded sketches match call-by-call
// Adds bucket for bucket, and so does the sojourn sum: sums of integers
// below 2^53 are exact in any order. The utility sum is not made of
// integers, so utilitySum keeps it in slot order, as call-by-call Adds
// would, and the report's utility mean reads it instead of the sketch's.
type profileAccum struct {
	sessions        int64
	departures      int64
	deviceSlots     int64
	framesCompleted int64
	framesDropped   int64
	droppedWork     float64
	// sojourns[s] counts the completed frames of sojourn s not yet
	// folded into the sojourn sketch. It grows to the largest sojourn
	// seen, up to sojournCountCap.
	sojourns   []uint64
	utilitySum float64
	sojourn    *stats.QuantileSketch
	backlog    *stats.QuantileSketch
	utility    *stats.QuantileSketch
	verdicts   VerdictCounts
}

func newProfileAccum(accuracy float64) *profileAccum {
	return &profileAccum{
		sojourn: stats.NewQuantileSketch(accuracy),
		backlog: stats.NewQuantileSketch(accuracy),
		utility: stats.NewQuantileSketch(accuracy),
	}
}

// countSojourn counts one completed frame of sojourn s slots that the
// sojourns table does not cover yet: it grows the table to take s, or
// adds s to the sketch at or beyond sojournCountCap.
func (p *profileAccum) countSojourn(s int) {
	if s >= sojournCountCap {
		p.sojourn.Add(float64(s))
		return
	}
	grown := make([]uint64, min(max(2*len(p.sojourns), s+1, 64), sojournCountCap))
	copy(grown, p.sojourns)
	p.sojourns = grown
	p.sojourns[s]++
}

// foldSojourns moves the sojourn counts into the sojourn sketch, one
// AddN per non-zero count.
func (p *profileAccum) foldSojourns() {
	for s, n := range p.sojourns {
		if n != 0 {
			p.sojourn.AddN(float64(s), n)
			p.sojourns[s] = 0
		}
	}
}

// merge folds o into p (lossless sketch merges). It folds o's own
// sojourn counts into o's sketch first.
func (p *profileAccum) merge(o *profileAccum) error {
	o.foldSojourns()
	p.sessions += o.sessions
	p.departures += o.departures
	p.deviceSlots += o.deviceSlots
	p.framesCompleted += o.framesCompleted
	p.framesDropped += o.framesDropped
	p.droppedWork += o.droppedWork
	p.utilitySum += o.utilitySum
	p.verdicts.merge(o.verdicts)
	if err := p.sojourn.Merge(o.sojourn); err != nil {
		return err
	}
	if err := p.backlog.Merge(o.backlog); err != nil {
		return err
	}
	return p.utility.Merge(o.utility)
}

func (p *profileAccum) report(name string) ProfileReport {
	utility := summarize(p.utility)
	if utility.Count > 0 {
		utility.Mean = p.utilitySum / float64(utility.Count)
	}
	return ProfileReport{
		Name:            name,
		Sessions:        p.sessions,
		Departures:      p.departures,
		DeviceSlots:     p.deviceSlots,
		FramesCompleted: p.framesCompleted,
		FramesDropped:   p.framesDropped,
		DroppedWork:     p.droppedWork,
		Sojourn:         summarize(p.sojourn),
		Backlog:         summarize(p.backlog),
		Utility:         utility,
		Verdicts:        p.verdicts,
	}
}

// countedDepths bounds the depths fleetAccum.depthSlots counts; a
// session at a depth outside [0, countedDepths) adds its utility to the
// sketch directly. Octree depths stay far below it.
const countedDepths = 32

// depthCounts counts one profile's slots per chosen depth.
type depthCounts [countedDepths]uint64

// fleetAccum is one shard's full accumulator: a profileAccum per device
// class, created lazily as the shard's seats first draw each class.
type fleetAccum struct {
	accuracy float64
	mix      []Profile
	profiles map[string]*profileAccum
	// depthSlots[i] counts the slots per depth of the sessions of
	// mix[i], not yet folded into the utility sketch of its name. A
	// slot's utility is pa(d(t)), one of a few values per profile, so a
	// count per depth holds the same information as an Add per slot.
	// The counts are kept per profile index, not per name: profiles
	// that share a name may score depths with different utility models.
	depthSlots []depthCounts
	// metrics is the shard's telemetry registry; nil when Spec.Metrics
	// is nil. Created with the target registry's accuracy so the final
	// merge can never mismatch.
	metrics *obs.Registry
}

func newFleetAccum(spec *Spec) *fleetAccum {
	a := &fleetAccum{
		accuracy:   spec.Accuracy,
		mix:        spec.Profiles,
		profiles:   make(map[string]*profileAccum, len(spec.Profiles)),
		depthSlots: make([]depthCounts, len(spec.Profiles)),
	}
	if spec.Metrics != nil {
		a.metrics = obs.NewRegistryAccuracy(spec.Metrics.Accuracy())
	}
	return a
}

func (a *fleetAccum) profile(name string) *profileAccum {
	p, ok := a.profiles[name]
	if !ok {
		p = newProfileAccum(a.accuracy)
		a.profiles[name] = p
	}
	return p
}

// foldDepths moves the depth counts into the utility sketches, one AddN
// per non-zero count at that profile's utility for the depth.
func (a *fleetAccum) foldDepths() {
	for i := range a.depthSlots {
		prof := &a.mix[i]
		for d, n := range a.depthSlots[i] {
			if n != 0 {
				a.profile(prof.Name).utility.AddN(prof.Utility.Utility(d), n)
				a.depthSlots[i][d] = 0
			}
		}
	}
}

// merge folds another shard's accumulator into a, profile by profile
// in name order — sketch merges are commutative, but a fixed order
// keeps the first error (and any future order-sensitive accumulator)
// deterministic across runs. It folds o's counts into o's sketches
// first.
func (a *fleetAccum) merge(o *fleetAccum) error {
	o.foldDepths()
	names := make([]string, 0, len(o.profiles))
	for name := range o.profiles {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := a.profile(name).merge(o.profiles[name]); err != nil {
			return fmt.Errorf("fleet: merging profile %q: %w", name, err)
		}
	}
	if err := a.metrics.Merge(o.metrics); err != nil {
		return fmt.Errorf("fleet: merging shard telemetry: %w", err)
	}
	return nil
}

// report assembles the final Report: per-profile rows sorted by name,
// then merged once more into the fleet-wide Total.
func (a *fleetAccum) report(spec *Spec, shards int, elapsed time.Duration) *Report {
	names := make([]string, 0, len(a.profiles))
	for name := range a.profiles {
		names = append(names, name)
	}
	sort.Strings(names)

	rep := &Report{
		Seats:   spec.Sessions,
		Slots:   spec.Slots,
		Shards:  shards,
		Churn:   spec.Churn,
		Seed:    spec.Seed,
		Elapsed: elapsed,
	}
	total := newProfileAccum(spec.Accuracy)
	for _, name := range names {
		p := a.profiles[name]
		rep.PerProfile = append(rep.PerProfile, p.report(name))
		// Lossless: same-accuracy sketches merge without extra error.
		if err := total.merge(p); err != nil {
			// Unreachable: every accumulator shares spec.Accuracy.
			panic(err)
		}
	}
	rep.Total = total.report("fleet")
	if secs := elapsed.Seconds(); secs > 0 {
		rep.DeviceSlotsPerSec = float64(rep.Total.DeviceSlots) / secs
	}
	return rep
}

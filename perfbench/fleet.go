package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"qarv/internal/delay"
	"qarv/internal/experiments"
	"qarv/internal/fleet"
	"qarv/internal/geom"
	"qarv/internal/policy"
	"qarv/internal/queueing"
	"qarv/internal/stats"
)

// fleet-mix: fleet.Run over qarvfleet's default heterogeneous mix
// (proposed:0.7, noisy:0.15, bursty:0.15), calibrated from one synthetic
// scenario. One operation is one fleet run of fleetSeats × fleetHorizon
// device-slots.
const (
	fleetSeats    = 20_000
	fleetHorizon  = 600
	fleetChurn    = 0.001
	fleetSamples  = 60_000 // qarvfleet's default scenario capture
	fleetAccuracy = 0.01
	// fleetReplaySeats is the sample of seats the traced pass replays
	// call by call.
	fleetReplaySeats = 256
)

// fleetMix is the calibrated scenario and the device-class mix built
// over it.
type fleetMix struct {
	scn      *experiments.Scenario
	profiles []fleet.Profile
}

// setupFleetMix calibrates the scenario and builds the default mix,
// exactly as qarvfleet's default -mix does.
func setupFleetMix(seed uint64) (*fleetMix, error) {
	scn, err := experiments.NewScenario(experiments.ScenarioParams{
		Samples:         fleetSamples,
		ServiceFraction: 0.6,
		Seed:            seed,
	})
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	proposed := scn.FleetProfile("proposed", 0.7, 1)
	noisy := scn.FleetProfile("noisy", 0.15, 1)
	rate := scn.ServiceRate
	noisy.NewService = func(rng *geom.RNG) delay.ServiceProcess {
		return &delay.NoisyService{Mean: rate, Std: 0.1 * rate, RNG: rng}
	}
	bursty := scn.FleetProfile("bursty", 0.15, 1)
	bursty.NewArrivals = func(*geom.RNG) queueing.ArrivalProcess {
		return &queueing.OnOffArrivals{OnSlots: 2, OffSlots: 2, PerSlotOn: 2}
	}
	return &fleetMix{scn: scn, profiles: []fleet.Profile{proposed, noisy, bursty}}, nil
}

// spec is the workload's fleet at the given size and shard count.
func (m *fleetMix) spec(seed uint64, seats, shards int) fleet.Spec {
	return fleet.Spec{
		Sessions: seats,
		Slots:    fleetHorizon,
		Shards:   shards,
		Churn:    fleetChurn,
		Seed:     seed,
		Accuracy: fleetAccuracy,
		Profiles: m.profiles,
	}
}

// checkFleetReport verifies one fleet report's accounting.
func checkFleetReport(rep *fleet.Report, seats int) []string {
	var bad []string
	if want := int64(seats) * fleetHorizon; rep.Total.DeviceSlots != want {
		bad = append(bad, fmt.Sprintf("device-slots %d, want seats×slots = %d", rep.Total.DeviceSlots, want))
	}
	v := rep.Total.Verdicts
	if sum := v.Diverging + v.Converged + v.Stabilized + v.Unclassified; sum != rep.Total.Sessions {
		bad = append(bad, fmt.Sprintf("verdicts sum to %d, want sessions = %d", sum, rep.Total.Sessions))
	}
	if rep.Total.Sessions < int64(seats) {
		bad = append(bad, fmt.Sprintf("sessions %d < seats %d", rep.Total.Sessions, seats))
	}
	var slots int64
	for _, p := range rep.PerProfile {
		slots += p.DeviceSlots
	}
	if slots != rep.Total.DeviceSlots {
		bad = append(bad, fmt.Sprintf("per-profile device-slots sum to %d, total says %d", slots, rep.Total.DeviceSlots))
	}
	return bad
}

// runFleetMix is the untraced fleet-mix workload.
func runFleetMix(rc runConfig) (*outcome, error) {
	mix, setups, err := repeatSetup(func() (*fleetMix, error) { return setupFleetMix(rc.seed) }, nil)
	if err != nil {
		return nil, err
	}
	o := &outcome{setups: setups}
	spec := mix.spec(rc.seed, fleetSeats, rc.workers)
	var first *fleet.ProfileReport
	var rates []float64
	var cpus []time.Duration
	start := clock()
	for len(o.ops) == 0 || clock().Sub(start) < rc.seconds {
		o.attempted++
		t0, c0 := clock(), cpuClock()
		rep, err := fleet.Run(spec)
		el, cpu := clock().Sub(t0), cpuClock()-c0
		if err != nil {
			o.fail("fleet run %d: %v", o.attempted, err)
			continue
		}
		o.ops = append(o.ops, el)
		cpus = append(cpus, cpu)
		rates = append(rates, float64(rep.Total.DeviceSlots)/el.Seconds())
		for _, b := range checkFleetReport(rep, fleetSeats) {
			o.fail("fleet run %d: %s", o.attempted, b)
		}
		// Same spec and seed: every simulated value repeats exactly.
		if first == nil {
			total := rep.Total
			first = &total
			fmt.Printf("# fleet-mix: %d seats x %d slots, %d shards: %d sessions, %d device-slots, %d frames completed, verdicts %+v\n",
				rep.Seats, rep.Slots, rep.Shards, rep.Total.Sessions, rep.Total.DeviceSlots, rep.Total.FramesCompleted, rep.Total.Verdicts)
		} else if rep.Total != *first {
			o.fail("fleet run %d: report differs from run 1 under the same seed", o.attempted)
		}
	}
	o.throughput = medianF(rates)
	fmt.Printf("# fleet-mix: median fleet run %.0f ms wall, %.0f ms CPU\n", ms(median(o.ops)), ms(median(cpus)))
	return o, nil
}

// ---------------------------------------------------------------------------
// Traced pass
// ---------------------------------------------------------------------------

// replayedSession is one session of the call-by-call replay, with the
// inputs of every per-slot call recorded for the batched layer timings.
type replayedSession struct {
	profile int
	q       []float64 // backlog observed at the start of each slot
	d       []int     // chosen depth
	n       []int     // frames arrived
	work    []float64 // work arrived
	svc     []float64 // service capacity offered
	served  []float64 // work served
	sojourn []float64 // completed frames' sojourns
	traj    []float64 // decimated trajectory the verdict classified
}

// fleetReplay is the replay of the first fleetReplaySeats seats.
type fleetReplay struct {
	sessions []replayedSession
	reports  []fleet.ProfileReport // per profile, sorted by name
	slots    int64
}

// replayFleet re-executes the fleet's per-seat session loop with the
// library's public calls — the same RNG stream layout, profile draws,
// lifetimes and slot cycle as fleet.Run — recording every call's inputs
// and accumulating the same per-profile report.
func replayFleet(m *fleetMix, seed uint64, seats int) (*fleetReplay, error) {
	cum := make([]float64, len(m.profiles))
	total := 0.0
	for i, p := range m.profiles {
		total += p.Weight
		cum[i] = total
	}
	type accum struct {
		rep                      fleet.ProfileReport
		sojourn, backlog, utilty *stats.QuantileSketch
		seen                     bool
	}
	acc := make([]accum, len(m.profiles))
	for i := range acc {
		acc[i].sojourn = stats.NewQuantileSketch(fleetAccuracy)
		acc[i].backlog = stats.NewQuantileSketch(fleetAccuracy)
		acc[i].utilty = stats.NewQuantileSketch(fleetAccuracy)
	}
	out := &fleetReplay{}
	traj := stats.NewDecimator(256)
	for seat := 0; seat < seats; seat++ {
		rng := geom.NewRNG(fleet.SeatSeed(seed, seat))
		t := 0
		for t < fleetHorizon {
			pi := pickProfile(rng, cum)
			prof := &m.profiles[pi]
			arrRNG, svcRNG, polRNG := rng.Split(), rng.Split(), rng.Split()
			life := fleetHorizon - t
			departs := false
			if l := geometricLifetime(rng, fleetChurn); l < life {
				life, departs = l, true
			}
			var arrivals queueing.ArrivalProcess = &queueing.DeterministicArrivals{PerSlot: 1}
			if prof.NewArrivals != nil {
				arrivals = prof.NewArrivals(arrRNG)
			}
			service := prof.NewService(svcRNG)
			pol, err := prof.NewPolicy(polRNG)
			if err != nil {
				return nil, fmt.Errorf("seat %d policy: %w", seat, err)
			}
			backlog := queueing.NewBoundedBacklog(prof.MaxBacklog)
			var frames queueing.FrameQueue
			traj.Reset()
			a := &acc[pi]
			a.seen = true
			s := replayedSession{
				profile: pi,
				q:       make([]float64, life), d: make([]int, life), n: make([]int, life),
				work: make([]float64, life), svc: make([]float64, life), served: make([]float64, life),
			}
			for k := 0; k < life; k++ {
				q := backlog.Level()
				traj.Add(q)
				a.backlog.Add(q)
				d := pol.Decide(k, q)
				a.utilty.Add(prof.Utility.Utility(d))
				n := arrivals.Frames(k)
				if n < 0 {
					n = 0
				}
				var work float64
				for i := 0; i < n; i++ {
					w := prof.Cost.FrameCost(d)
					work += w
					frames.Push(w, d, k)
				}
				droppedBefore := backlog.TotalDropped()
				capacity := service.Service(k)
				served := backlog.Step(work, capacity)
				if droppedNow := backlog.TotalDropped() - droppedBefore; droppedNow > 0 {
					dropped, _ := frames.DropTail(droppedNow)
					a.rep.FramesDropped += int64(dropped)
				}
				for _, c := range frames.Serve(served, k) {
					a.rep.FramesCompleted++
					a.sojourn.Add(float64(c.Sojourn))
					s.sojourn = append(s.sojourn, float64(c.Sojourn))
				}
				a.rep.DeviceSlots++
				s.q[k], s.d[k], s.n[k], s.work[k], s.svc[k], s.served[k] = q, d, n, work, capacity, served
			}
			a.rep.Sessions++
			if departs {
				a.rep.Departures++
			}
			a.rep.DroppedWork += backlog.TotalDropped()
			s.traj = append([]float64(nil), traj.Samples()...)
			v, err := queueing.ClassifyTrajectory(s.traj, 0)
			switch {
			case err != nil:
				a.rep.Verdicts.Unclassified++
			case v == queueing.VerdictDiverging:
				a.rep.Verdicts.Diverging++
			case v == queueing.VerdictConverged:
				a.rep.Verdicts.Converged++
			case v == queueing.VerdictStabilized:
				a.rep.Verdicts.Stabilized++
			}
			out.sessions = append(out.sessions, s)
			out.slots += int64(life)
			t += life
		}
	}
	for i := range acc {
		if !acc[i].seen {
			continue
		}
		r := acc[i].rep
		r.Name = m.profiles[i].Name
		r.Sojourn = summarizeSketch(acc[i].sojourn)
		r.Backlog = summarizeSketch(acc[i].backlog)
		r.Utility = summarizeSketch(acc[i].utilty)
		out.reports = append(out.reports, r)
	}
	sort.Slice(out.reports, func(i, j int) bool { return out.reports[i].Name < out.reports[j].Name })
	return out, nil
}

// summarizeSketch condenses a sketch the way fleet reports do.
func summarizeSketch(s *stats.QuantileSketch) fleet.QuantileSummary {
	return fleet.QuantileSummary{
		Count: s.Count(), Mean: s.Mean(), Min: s.Min(), Max: s.Max(),
		P50: s.Quantile(0.50), P95: s.Quantile(0.95), P99: s.Quantile(0.99),
	}
}

// pickProfile draws a profile index from the cumulative weight table,
// consuming the seat stream exactly as fleet.Run does.
func pickProfile(rng *geom.RNG, cum []float64) int {
	if len(cum) == 1 {
		rng.Float64()
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

// geometricLifetime draws a session lifetime under per-slot departure
// hazard c, consuming the seat stream exactly as fleet.Run does.
func geometricLifetime(rng *geom.RNG, c float64) int {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	l := 1 + int(math.Floor(math.Log(u)/math.Log(1-c)))
	if l < 1 {
		l = 1
	}
	return l
}

// sinkInt and sinkFloat keep batched replay loops from being optimized
// away.
var (
	sinkInt   int
	sinkFloat float64
)

// attributeFleetMix is the fleet-mix traced pass: the workload's fleet
// run untraced and traced, the single-shard baseline, and the per-slot
// layer calls replayed on a sample of seats.
func attributeFleetMix(a *attribution) error {
	const moves = "throughput_per_s, op_p50_ms @ fleet-mix"
	root := a.tr.begin(-1, "perfbench", "fleet-mix")
	defer a.tr.end(root, 1)
	mix, err := setupFleetMix(a.rc.seed)
	if err != nil {
		return err
	}
	spec := mix.spec(a.rc.seed, fleetSeats, a.rc.workers)

	t0 := clock()
	repU, err := fleet.Run(spec)
	untraced := clock().Sub(t0)
	if err != nil {
		return err
	}
	var repT *fleet.Report
	traced, err := a.tr.call(root, "fleet", "Run", 1, func() error {
		var err error
		repT, err = fleet.Run(spec)
		return err
	})
	if err != nil {
		return err
	}
	a.check(repT.Total == repU.Total, "fleet-mix: traced run report differs from the untraced one")
	for _, b := range checkFleetReport(repT, fleetSeats) {
		a.check(false, "fleet-mix: %s", b)
	}

	single := mix.spec(a.rc.seed, fleetSeats, 1)
	var rep1 *fleet.Report
	d1, err := a.tr.call(root, "fleet", "Run(shards=1)", 1, func() error {
		var err error
		rep1, err = fleet.Run(single)
		return err
	})
	if err != nil {
		return err
	}
	a.check(rep1.Total.DeviceSlots == repU.Total.DeviceSlots && rep1.Total.Verdicts == repU.Total.Verdicts &&
		rep1.Total.Sessions == repU.Total.Sessions,
		"fleet-mix: shards=1 counts differ from shards=%d", spec.Shards)
	slotsPerRun := float64(repU.Total.DeviceSlots)
	rate1 := slotsPerRun / d1.Seconds()
	rateN := slotsPerRun / traced.Seconds()
	a.add("fleet.shard1_device_slots_per_s", rate1, "1/s", moves)
	a.add("fleet.scaling_efficiency", rateN/(float64(spec.Shards)*rate1), "ratio", moves)
	a.add("obs.trace_overhead_ratio.fleet-mix", traced.Seconds()/untraced.Seconds(), "ratio", "tracing cost @ fleet-mix")

	// Replay a sample of seats call by call and check it reproduces a
	// fleet.Run over the same seats.
	var rp *fleetReplay
	if _, err := a.tr.call(root, "perfbench", "replay", fleetReplaySeats, func() error {
		var err error
		rp, err = replayFleet(mix, a.rc.seed, fleetReplaySeats)
		return err
	}); err != nil {
		return err
	}
	sample, err := fleet.Run(mix.spec(a.rc.seed, fleetReplaySeats, 1))
	if err != nil {
		return err
	}
	same := len(sample.PerProfile) == len(rp.reports)
	for i := 0; same && i < len(rp.reports); i++ {
		same = sample.PerProfile[i] == rp.reports[i]
	}
	a.check(same, "fleet-mix: replay of %d seats does not reproduce fleet.Run's per-profile report", fleetReplaySeats)

	perSlot, err := timeFleetLayers(a, root, mix, rp)
	if err != nil {
		return err
	}
	covered := 0.0
	for _, ns := range perSlot {
		covered += ns
	}
	total := 1e9 / rate1
	a.add("fleet.unattributed_share", 1-covered/total, "ratio", moves)
	return nil
}

// timeFleetLayers times each layer's per-slot calls over the replay's
// recorded inputs, adds the per-call metrics, and returns each layer
// call's cost per device-slot in nanoseconds.
func timeFleetLayers(a *attribution, root int, m *fleetMix, rp *fleetReplay) (map[string]float64, error) {
	const moves = "throughput_per_s, op_p50_ms @ fleet-mix"
	slots := float64(rp.slots)
	perSlot := make(map[string]float64)
	depths := m.scn.Params.Depths

	pols := make([]policy.Policy, len(m.profiles))
	for i, p := range m.profiles {
		pol, err := p.NewPolicy(geom.NewRNG(1))
		if err != nil {
			return nil, err
		}
		pols[i] = pol
	}
	d, _ := a.tr.call(root, "core", "Controller.Decide", rp.slots, func() error {
		acc := 0
		for _, s := range rp.sessions {
			pol := pols[s.profile]
			for k, q := range s.q {
				acc += pol.Decide(k, q)
			}
		}
		sinkInt = acc
		return nil
	})
	perSlot["decide"] = float64(d.Nanoseconds()) / slots
	a.add("core.decide_ns", perSlot["decide"], "ns", moves+", sweep-grid")

	ctrl, err := m.scn.Controller()
	if err != nil {
		return nil, err
	}
	th, err := policy.NewThreshold(depths, 0.5*ctrl.SwitchBacklog(), ctrl.SwitchBacklog())
	if err != nil {
		return nil, err
	}
	d, _ = a.tr.call(root, "policy", "Threshold.Decide", rp.slots, func() error {
		acc := 0
		for _, s := range rp.sessions {
			for k, q := range s.q {
				acc += th.Decide(k, q)
			}
		}
		sinkInt = acc
		return nil
	})
	a.add("policy.threshold_decide_ns", float64(d.Nanoseconds())/slots, "ns", moves)

	d, _ = a.tr.call(root, "queueing", "Backlog.Step", rp.slots, func() error {
		acc := 0.0
		for _, s := range rp.sessions {
			b := queueing.NewBoundedBacklog(m.profiles[s.profile].MaxBacklog)
			for k := range s.q {
				acc += b.Step(s.work[k], s.svc[k])
			}
		}
		sinkFloat = acc
		return nil
	})
	perSlot["backlog"] = float64(d.Nanoseconds()) / slots
	a.add("queueing.backlog_step_ns", perSlot["backlog"], "ns", moves+", sweep-grid")

	completed := 0
	d, _ = a.tr.call(root, "queueing", "FrameQueue.Push+Serve", rp.slots, func() error {
		n := 0
		for _, s := range rp.sessions {
			var fq queueing.FrameQueue
			cost := m.profiles[s.profile].Cost
			for k := range s.q {
				for i := 0; i < s.n[k]; i++ {
					fq.Push(cost.FrameCost(s.d[k]), s.d[k], k)
				}
				n += len(fq.Serve(s.served[k], k))
			}
		}
		completed = n
		return nil
	})
	perSlot["framequeue"] = float64(d.Nanoseconds()) / slots
	a.add("queueing.framequeue_push_serve_ns", perSlot["framequeue"], "ns", moves+", sweep-grid")
	a.check(completed == totalSojourns(rp), "fleet-mix: frame-queue replay completed %d frames, want %d", completed, totalSojourns(rp))

	d, _ = a.tr.call(root, "queueing", "ClassifyTrajectory", int64(len(rp.sessions)), func() error {
		acc := 0
		for _, s := range rp.sessions {
			v, err := queueing.ClassifyTrajectory(s.traj, 0)
			if err == nil {
				acc += int(v)
			}
		}
		sinkInt = acc
		return nil
	})
	classifyNS := float64(d.Nanoseconds()) / float64(len(rp.sessions))
	a.add("queueing.classify_us", classifyNS/1e3, "us", moves)
	// Sessions per device-slot in the replay match the fleet's churn.
	perSlot["classify"] = classifyNS * float64(len(rp.sessions)) / slots

	adds := int64(2*rp.slots) + int64(totalSojourns(rp))
	var sk [3]*stats.QuantileSketch
	d, _ = a.tr.call(root, "stats", "QuantileSketch.Add", adds, func() error {
		for i := range sk {
			sk[i] = stats.NewQuantileSketch(fleetAccuracy)
		}
		for _, s := range rp.sessions {
			for k, q := range s.q {
				sk[0].Add(q)
				sk[1].Add(m.profiles[s.profile].Utility.Utility(s.d[k]))
			}
			for _, x := range s.sojourn {
				sk[2].Add(x)
			}
		}
		return nil
	})
	addNS := float64(d.Nanoseconds()) / float64(adds)
	a.add("stats.sketch_add_ns", addNS, "ns", moves)
	perSlot["sketch"] = addNS * float64(adds) / slots

	d, _ = a.tr.call(root, "stats", "Decimator.Add", rp.slots, func() error {
		dec := stats.NewDecimator(256)
		for _, s := range rp.sessions {
			dec.Reset()
			for _, q := range s.q {
				dec.Add(q)
			}
		}
		sinkInt = dec.Count()
		return nil
	})
	perSlot["decimator"] = float64(d.Nanoseconds()) / slots
	a.add("stats.decimator_add_ns", perSlot["decimator"], "ns", moves)

	const merges = 200
	d, _ = a.tr.call(root, "stats", "QuantileSketch.Merge", merges*3, func() error {
		for i := 0; i < merges; i++ {
			dst := stats.NewQuantileSketch(fleetAccuracy)
			for _, s := range sk {
				if err := dst.Merge(s); err != nil {
					return err
				}
			}
		}
		return nil
	})
	mergeNS := float64(d.Nanoseconds()) / (merges * 3)
	a.add("stats.sketch_merge_us", mergeNS/1e3, "us", moves)
	// A fleet run merges three sketches per profile per shard, then once
	// more into the total.
	mergesPerRun := float64(3 * len(m.profiles) * (a.rc.workers + 1))
	perSlot["merge"] = mergeNS * mergesPerRun / (fleetSeats * fleetHorizon)
	return perSlot, nil
}

// totalSojourns counts the replay's completed frames.
func totalSojourns(rp *fleetReplay) int {
	n := 0
	for _, s := range rp.sessions {
		n += len(s.sojourn)
	}
	return n
}

package fleet

import (
	"math"
	"sort"
	"testing"

	"qarv/internal/delay"
	"qarv/internal/geom"
	"qarv/internal/policy"
	"qarv/internal/queueing"
	"qarv/internal/stats"
)

// The engine counts slots per depth and completed frames per sojourn,
// and folds the counts into its sketches when shards merge. This file
// replays fleets the plain way, one sketch Add per observation, and
// requires the engine's report to equal the replay's exactly: every
// counter, every float sum, every quantile.

// sqrtUtility scores depth d as k·√d: fractional utilities, so the
// utility mean depends on the order of its float additions.
type sqrtUtility struct{ k float64 }

func (u sqrtUtility) Utility(d int) float64 { return u.k * math.Sqrt(float64(d)) }
func (sqrtUtility) Name() string            { return "sqrt" }

// refAccum is one profile name's call-by-call accumulator.
type refAccum struct {
	rep                       ProfileReport
	sojourn, backlog, utility *stats.QuantileSketch
}

func newRefAccum(accuracy float64) *refAccum {
	return &refAccum{
		sojourn: stats.NewQuantileSketch(accuracy),
		backlog: stats.NewQuantileSketch(accuracy),
		utility: stats.NewQuantileSketch(accuracy),
	}
}

// merge folds o into r the way shard accumulators merge.
func (r *refAccum) merge(t *testing.T, o *refAccum) {
	t.Helper()
	r.rep.Sessions += o.rep.Sessions
	r.rep.Departures += o.rep.Departures
	r.rep.DeviceSlots += o.rep.DeviceSlots
	r.rep.FramesCompleted += o.rep.FramesCompleted
	r.rep.FramesDropped += o.rep.FramesDropped
	r.rep.DroppedWork += o.rep.DroppedWork
	r.rep.Verdicts.merge(o.rep.Verdicts)
	for _, m := range [][2]*stats.QuantileSketch{{r.sojourn, o.sojourn}, {r.backlog, o.backlog}, {r.utility, o.utility}} {
		if err := m[0].Merge(m[1]); err != nil {
			t.Fatal(err)
		}
	}
}

func (r *refAccum) report(name string) ProfileReport {
	rep := r.rep
	rep.Name = name
	rep.Sojourn, rep.Backlog, rep.Utility = summarize(r.sojourn), summarize(r.backlog), summarize(r.utility)
	return rep
}

// refSeen records what a replay exercised, so a test can check its
// fleet reaches the paths it is meant to cover.
type refSeen struct {
	profiles      map[int]bool // profile indices drawn
	maxDepth      int
	maxSojourn    int
	framesDropped int64
}

// referenceRun replays spec on the given number of shards: the same
// contiguous seat ranges, seat RNG streams, profile draws, lifetimes
// and slot cycle as runShard, with one sketch Add per slot backlog,
// slot utility and completed frame. Shards merge per name in name
// order, in shard order, and the total merges the profiles in name
// order, as fleetAccum does.
func referenceRun(t *testing.T, spec Spec, shards int) (ProfileReport, []ProfileReport, refSeen) {
	t.Helper()
	cum := make([]float64, len(spec.Profiles))
	total := 0.0
	for i, p := range spec.Profiles {
		total += p.Weight
		cum[i] = total
	}
	seen := refSeen{profiles: map[int]bool{}}
	merged := map[string]*refAccum{}
	traj := stats.NewDecimator(trajCap)
	for w := 0; w < shards; w++ {
		shard := map[string]*refAccum{}
		for seat := w * spec.Sessions / shards; seat < (w+1)*spec.Sessions/shards; seat++ {
			rng := geom.NewRNG(SeatSeed(spec.Seed, seat))
			for slot := 0; slot < spec.Slots; {
				pi := pickProfile(rng, cum)
				prof := &spec.Profiles[pi]
				arrRNG, svcRNG, polRNG := rng.Split(), rng.Split(), rng.Split()
				life, departs := spec.Slots-slot, false
				if spec.Churn > 0 {
					if l := geometricLifetime(rng, spec.Churn); l < life {
						life, departs = l, true
					}
				}
				var arrivals queueing.ArrivalProcess = &queueing.DeterministicArrivals{PerSlot: 1}
				if prof.NewArrivals != nil {
					arrivals = prof.NewArrivals(arrRNG)
				}
				service := prof.NewService(svcRNG)
				pol, err := prof.NewPolicy(polRNG)
				if err != nil {
					t.Fatal(err)
				}
				a := shard[prof.Name]
				if a == nil {
					a = newRefAccum(spec.Accuracy)
					shard[prof.Name] = a
				}
				seen.profiles[pi] = true
				backlog := queueing.NewBoundedBacklog(prof.MaxBacklog)
				var frames queueing.FrameQueue
				traj.Reset()
				for k := 0; k < life; k++ {
					q := backlog.Level()
					d := pol.Decide(k, q)
					traj.Add(q)
					a.backlog.Add(q)
					a.utility.Add(prof.Utility.Utility(d))
					seen.maxDepth = max(seen.maxDepth, d)
					var work float64
					for i := 0; i < max(arrivals.Frames(k), 0); i++ {
						c := prof.Cost.FrameCost(d)
						work += c
						frames.Push(c, d, k)
					}
					before := backlog.TotalDropped()
					served := backlog.Step(work, service.Service(k))
					if dropped := backlog.TotalDropped() - before; dropped > 0 {
						n, _ := frames.DropTail(dropped)
						a.rep.FramesDropped += int64(n)
						seen.framesDropped += int64(n)
					}
					for _, c := range frames.Serve(served, k) {
						a.rep.FramesCompleted++
						a.sojourn.Add(float64(c.Sojourn))
						seen.maxSojourn = max(seen.maxSojourn, c.Sojourn)
					}
					a.rep.DeviceSlots++
				}
				a.rep.Sessions++
				if departs {
					a.rep.Departures++
				}
				a.rep.DroppedWork += backlog.TotalDropped()
				if v, err := queueing.ClassifyTrajectory(traj.Samples(), 0); err != nil {
					a.rep.Verdicts.Unclassified++
				} else {
					a.rep.Verdicts.Add(v)
				}
				slot += life
			}
		}
		for _, name := range sortedNames(shard) {
			if merged[name] == nil {
				merged[name] = newRefAccum(spec.Accuracy)
			}
			merged[name].merge(t, shard[name])
		}
	}
	all := newRefAccum(spec.Accuracy)
	var per []ProfileReport
	for _, name := range sortedNames(merged) {
		per = append(per, merged[name].report(name))
		all.merge(t, merged[name])
	}
	return all.report("fleet"), per, seen
}

func sortedNames(m map[string]*refAccum) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// thresholdProfile is a hysteresis policy over depths against noisy
// service: its depth moves with the backlog, and the backlog is
// fractional.
func thresholdProfile(name string, depths []int, scale, rate float64) Profile {
	return Profile{
		Name:   name,
		Weight: 1,
		NewPolicy: func(*geom.RNG) (policy.Policy, error) {
			return policy.NewThreshold(depths, 2*rate, 6*rate)
		},
		Cost:    testCost{Scale: scale},
		Utility: sqrtUtility{k: 1.7},
		NewService: func(rng *geom.RNG) delay.ServiceProcess {
			return &delay.NoisyService{Mean: rate, Std: 0.15 * rate, RNG: rng}
		},
	}
}

// TestRunMatchesCallByCallReference pins the counted accounting to the
// call-by-call one on fleets that reach every fold and fallback path:
// bursty arrivals, noisy service and churn; a bounded profile that
// drops; two profiles sharing a name with different utility models;
// depths beyond the depth-count table; and sojourns beyond the
// sojourn-count cap.
func TestRunMatchesCallByCallReference(t *testing.T) {
	bursty := thresholdProfile("bursty", []int{3, 4, 5, 6, 7, 8}, 16, 110)
	bursty.NewArrivals = func(*geom.RNG) queueing.ArrivalProcess {
		return &queueing.OnOffArrivals{OnSlots: 2, OffSlots: 2, PerSlotOn: 2}
	}
	bounded := thresholdProfile("bounded", []int{9, 10}, 1, 8)
	bounded.MaxBacklog = 20
	bounded.NewArrivals = func(*geom.RNG) queueing.ArrivalProcess {
		return &queueing.DeterministicArrivals{PerSlot: 3}
	}
	twinA := thresholdProfile("twin", []int{3, 4, 5, 6, 7, 8}, 16, 110)
	twinB := thresholdProfile("twin", []int{3, 4, 5, 6, 7, 8}, 16, 110)
	twinB.Utility = testUtility{}
	deep := thresholdProfile("deep", []int{30, 31, countedDepths, 40}, 4, 130)
	mix := Spec{
		Sessions: 13, Slots: 500, Churn: 0.01, Seed: 7, Accuracy: 0.01,
		Profiles: []Profile{bursty, bounded, twinA, twinB, deep},
	}

	// Forty work units a frame against one a slot: the frame of slot t
	// completes near slot 40t, so sojourns pass sojournCountCap before
	// the horizon ends.
	overloaded := fixedProfile("overloaded", 1, 4, 1, 10)
	overloaded.Utility = sqrtUtility{k: 0.9}
	long := Spec{
		Sessions: 3, Slots: sojournCountCap + 500, Seed: 5, Accuracy: 0.01,
		Profiles: []Profile{overloaded, fixedProfile("stable", 1, 1, 12, 10)},
	}

	for _, tc := range []struct {
		name  string
		spec  Spec
		cover func(refSeen) bool
	}{
		{"mix", mix, func(s refSeen) bool {
			return len(s.profiles) == len(mix.Profiles) && s.framesDropped > 0 && s.maxDepth >= countedDepths
		}},
		{"long", long, func(s refSeen) bool { return s.maxSojourn > sojournCountCap }},
	} {
		for _, shards := range []int{1, 3} {
			spec := tc.spec
			spec.Shards = shards
			rep, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			total, per, seen := referenceRun(t, spec, shards)
			if !tc.cover(seen) {
				t.Fatalf("%s: the fleet does not reach the paths it is meant to cover: %+v", tc.name, seen)
			}
			if rep.Total != total {
				t.Errorf("%s, %d shards: total\n got %+v\nwant %+v", tc.name, shards, rep.Total, total)
			}
			if len(rep.PerProfile) != len(per) {
				t.Fatalf("%s, %d shards: %d profiles, want %d", tc.name, shards, len(rep.PerProfile), len(per))
			}
			for i := range per {
				if rep.PerProfile[i] != per[i] {
					t.Errorf("%s, %d shards: profile %q\n got %+v\nwant %+v",
						tc.name, shards, per[i].Name, rep.PerProfile[i], per[i])
				}
			}
		}
	}
}

package fleet_test

import (
	"context"
	"math"
	"sort"
	"testing"

	"qarv"
	"qarv/internal/delay"
	"qarv/internal/fleet"
	"qarv/internal/geom"
	"qarv/internal/policy"
	"qarv/internal/queueing"
)

// The fleet engine steps the same sim.Kernel as a Session run and only
// records differently — streaming sketches and a decimated trajectory
// instead of per-slot series — so its aggregates must not merely
// resemble Session.Run's, they must match it exactly. This test pins
// that recording and accumulation. It runs a tiny stochastic fleet
// (Poisson arrivals, noisy service, drift-plus-penalty controller), then
// replays every seat as an individual qarv Session built from the same
// RNG streams (fleet.SeatSeed documents the seat→stream derivation) and
// checks that the merged fleet report equals the per-session reports on
// every exact aggregate — and that the sketched quantiles sit within the
// sketch's error bound of the exact per-frame quantiles.

const (
	consistSeed    = 99
	consistSeats   = 6
	consistSlots   = 120
	consistAcc     = 0.005
	consistArrMean = 1.2
	consistSvcMean = 200.0
	consistSvcStd  = 25.0
	consistV       = 800.0
)

// consistModels builds the shared depth→cost/utility tables: an
// exponential occupancy profile over depths 3..8 (cost 2^d).
func consistModels(t *testing.T) (qarv.UtilityModel, qarv.CostModel, []int) {
	t.Helper()
	occupancy := make([]int, 9)
	for i := range occupancy {
		occupancy[i] = 1 << uint(i)
	}
	util, err := qarv.NewLogPointUtility(occupancy)
	if err != nil {
		t.Fatal(err)
	}
	cost, err := qarv.NewPointCostModel(occupancy, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return util, cost, []int{3, 4, 5, 6, 7, 8}
}

func consistController(t *testing.T, util qarv.UtilityModel, cost qarv.CostModel, depths []int) *qarv.Controller {
	t.Helper()
	ctrl, err := qarv.NewController(qarv.ControllerConfig{
		V: consistV, Depths: depths, Utility: util, Cost: cost,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ctrl
}

func TestFleetMatchesSessionRuns(t *testing.T) {
	util, cost, depths := consistModels(t)

	spec := fleet.Spec{
		Sessions: consistSeats,
		Slots:    consistSlots,
		Shards:   3,
		Seed:     consistSeed,
		Accuracy: consistAcc,
		Profiles: []fleet.Profile{{
			Name:   "proposed",
			Weight: 1,
			NewPolicy: func(*geom.RNG) (policy.Policy, error) {
				return consistController(t, util, cost, depths), nil
			},
			Cost:    cost,
			Utility: util,
			NewArrivals: func(rng *geom.RNG) queueing.ArrivalProcess {
				return &qarv.PoissonArrivals{Mean: consistArrMean, RNG: rng}
			},
			NewService: func(rng *geom.RNG) delay.ServiceProcess {
				return &qarv.NoisyService{Mean: consistSvcMean, Std: consistSvcStd, RNG: rng}
			},
		}},
	}

	rep, err := fleet.Run(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Replay each seat as a standalone Session built from the same RNG
	// stream layout: one profile draw, then arrivals/service/policy
	// child streams, in that order.
	var (
		framesCompleted int64
		backlogSum      float64
		utilitySum      float64
		sojourns        []float64
		maxSojourn      float64
		verdicts        = map[qarv.Verdict]int64{}
	)
	for seat := 0; seat < consistSeats; seat++ {
		rng := geom.NewRNG(fleet.SeatSeed(consistSeed, seat))
		rng.Float64() // the profile draw
		arrRNG, svcRNG, _ := rng.Split(), rng.Split(), rng.Split()
		sess, err := qarv.NewSession(
			qarv.WithPolicy(consistController(t, util, cost, depths)),
			qarv.WithArrivals(&qarv.PoissonArrivals{Mean: consistArrMean, RNG: arrRNG}),
			qarv.WithService(&qarv.NoisyService{Mean: consistSvcMean, Std: consistSvcStd, RNG: svcRNG}),
			qarv.WithCost(cost), qarv.WithUtility(util),
			qarv.WithSlots(consistSlots),
		)
		if err != nil {
			t.Fatalf("seat %d: %v", seat, err)
		}
		srep, err := sess.Run(context.Background())
		if err != nil {
			t.Fatalf("seat %d: %v", seat, err)
		}
		res := srep.Sim
		framesCompleted += int64(len(res.Completed))
		for _, c := range res.Completed {
			s := float64(c.Sojourn)
			sojourns = append(sojourns, s)
			if s > maxSojourn {
				maxSojourn = s
			}
		}
		for _, q := range res.Backlog {
			backlogSum += q
		}
		for _, u := range res.Utility {
			utilitySum += u
		}
		verdicts[srep.Verdict]++
	}

	tot := rep.Total
	if tot.Sessions != consistSeats || tot.DeviceSlots != consistSeats*consistSlots {
		t.Fatalf("sessions/device-slots %d/%d, want %d/%d",
			tot.Sessions, tot.DeviceSlots, consistSeats, consistSeats*consistSlots)
	}
	if tot.FramesCompleted != framesCompleted {
		t.Errorf("frames completed %d, want %d", tot.FramesCompleted, framesCompleted)
	}
	if tot.Sojourn.Count != uint64(framesCompleted) {
		t.Errorf("sojourn samples %d, want %d", tot.Sojourn.Count, framesCompleted)
	}
	if tot.Sojourn.Max != maxSojourn {
		t.Errorf("max sojourn %v, want %v (exact)", tot.Sojourn.Max, maxSojourn)
	}
	slots := float64(consistSeats * consistSlots)
	if got, want := tot.Backlog.Mean, backlogSum/slots; !closeRel(got, want, 1e-12) {
		t.Errorf("mean backlog %v, want %v (exact)", got, want)
	}
	if got, want := tot.Utility.Mean, utilitySum/slots; !closeRel(got, want, 1e-12) {
		t.Errorf("mean utility %v, want %v (exact)", got, want)
	}
	if got := tot.Verdicts; got.Diverging != verdicts[queueing.VerdictDiverging] ||
		got.Converged != verdicts[queueing.VerdictConverged] ||
		got.Stabilized != verdicts[queueing.VerdictStabilized] {
		t.Errorf("verdicts %+v, want session verdicts %v", got, verdicts)
	}

	// Sketched quantiles vs exact per-frame quantiles, within the bound.
	sort.Float64s(sojourns)
	for _, q := range []float64{0.5, 0.95, 0.99} {
		rank := int(math.Ceil(q * float64(len(sojourns)-1)))
		exact := sojourns[rank]
		var got float64
		switch q {
		case 0.5:
			got = tot.Sojourn.P50
		case 0.95:
			got = tot.Sojourn.P95
		default:
			got = tot.Sojourn.P99
		}
		if math.Abs(got-exact) > consistAcc*exact+1e-6 {
			t.Errorf("sojourn P%g: sketch %v vs exact %v exceeds %v relative error",
				q*100, got, exact, consistAcc)
		}
	}
}

func closeRel(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

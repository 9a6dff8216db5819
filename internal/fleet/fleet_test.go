package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"testing"

	"qarv/internal/delay"
	"qarv/internal/geom"
	"qarv/internal/policy"
	"qarv/internal/quality"
	"qarv/internal/queueing"
)

// testUtility is a tiny deterministic utility model for fleet tests.
type testUtility struct{}

func (testUtility) Utility(d int) float64 { return float64(d) }
func (testUtility) Name() string          { return "linear" }

var _ quality.UtilityModel = testUtility{}

// testCost charges Scale work units per depth unit.
type testCost struct{ Scale float64 }

func (c testCost) FrameCost(d int) float64 { return c.Scale * float64(d) }
func (c testCost) Name() string            { return "linear" }

var _ delay.CostModel = testCost{}

// fixedProfile builds a single-class profile: FixedDepth(depth) against a
// constant service rate — stable when depth·scale < rate.
func fixedProfile(name string, weight, scale, rate float64, depth int) Profile {
	return Profile{
		Name:   name,
		Weight: weight,
		NewPolicy: func(*geom.RNG) (policy.Policy, error) {
			return &policy.FixedDepth{Depth: depth}, nil
		},
		Cost:    testCost{Scale: scale},
		Utility: testUtility{},
		NewService: func(*geom.RNG) delay.ServiceProcess {
			return &delay.ConstantService{Rate: rate}
		},
	}
}

func TestSpecValidation(t *testing.T) {
	ok := fixedProfile("a", 1, 1, 12, 10)
	cases := []struct {
		name string
		spec Spec
		want error
	}{
		{"no sessions", Spec{Slots: 10, Profiles: []Profile{ok}}, ErrNoSessions},
		{"no slots", Spec{Sessions: 1, Profiles: []Profile{ok}}, ErrBadSlots},
		{"bad churn", Spec{Sessions: 1, Slots: 10, Churn: 1, Profiles: []Profile{ok}}, ErrBadChurn},
		{"NaN accuracy", Spec{Sessions: 1, Slots: 10, Accuracy: math.NaN(), Profiles: []Profile{ok}}, ErrBadAccuracy},
		{"-Inf accuracy", Spec{Sessions: 1, Slots: 10, Accuracy: math.Inf(-1), Profiles: []Profile{ok}}, ErrBadAccuracy},
		{"+Inf accuracy", Spec{Sessions: 1, Slots: 10, Accuracy: math.Inf(1), Profiles: []Profile{ok}}, ErrBadAccuracy},
		{"accuracy 1", Spec{Sessions: 1, Slots: 10, Accuracy: 1, Profiles: []Profile{ok}}, ErrBadAccuracy},
		{"no profiles", Spec{Sessions: 1, Slots: 10}, ErrNoProfiles},
	}
	for _, c := range cases {
		if _, err := Run(c.spec); !errors.Is(err, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, err, c.want)
		}
	}

	bad := ok
	bad.Weight = 0
	if _, err := Run(Spec{Sessions: 1, Slots: 10, Profiles: []Profile{bad}}); !errors.Is(err, ErrBadWeight) {
		t.Errorf("zero weight: got %v", err)
	}
	bad = ok
	bad.NewPolicy = nil
	if _, err := Run(Spec{Sessions: 1, Slots: 10, Profiles: []Profile{bad}}); !errors.Is(err, ErrNilPolicy) {
		t.Errorf("nil policy factory: got %v", err)
	}
	bad = ok
	bad.NewService = nil
	if _, err := Run(Spec{Sessions: 1, Slots: 10, Profiles: []Profile{bad}}); !errors.Is(err, ErrNilService) {
		t.Errorf("nil service factory: got %v", err)
	}
	bad = ok
	bad.Cost = nil
	if _, err := Run(Spec{Sessions: 1, Slots: 10, Profiles: []Profile{bad}}); !errors.Is(err, ErrNilCost) {
		t.Errorf("nil cost: got %v", err)
	}
	bad = ok
	bad.Utility = nil
	if _, err := Run(Spec{Sessions: 1, Slots: 10, Profiles: []Profile{bad}}); !errors.Is(err, ErrNilUtility) {
		t.Errorf("nil utility: got %v", err)
	}
}

// normalize clears the wall-clock fields (and the shard count, which is
// an execution detail) so reports can be compared byte-for-byte.
func normalize(r *Report) *Report {
	r.Elapsed = 0
	r.DeviceSlotsPerSec = 0
	r.Shards = 0
	return r
}

// TestDeterminismAcrossShardCounts pins the engine's core contract: the
// same Spec and Seed produce a byte-identical report whether the fleet
// runs on 1 shard or many, and across repeated runs. The workloads here
// are integer-valued on purpose — float64 sums over integers are exact,
// so even the Mean/DroppedWork fields must match byte-for-byte; with
// fractional workloads those two fields are only identical up to FP
// association order across shard counts (see the package comment).
func TestDeterminismAcrossShardCounts(t *testing.T) {
	mix := []Profile{
		fixedProfile("stable", 3, 1, 12, 10),
		fixedProfile("diverging", 1, 1, 8, 10),
	}
	// Make one class stochastic so the RNG plumbing is exercised.
	mix[0].NewArrivals = func(rng *geom.RNG) queueing.ArrivalProcess {
		return &queueing.PoissonArrivals{Mean: 1.1, RNG: rng}
	}
	base := Spec{Sessions: 40, Slots: 120, Churn: 0.01, Seed: 5, Profiles: mix}

	var want []byte
	for _, shards := range []int{1, 3, 8} {
		spec := base
		spec.Shards = shards
		rep, err := Run(spec)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		got, err := json.Marshal(normalize(rep))
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		if string(got) != string(want) {
			t.Errorf("shards=%d: report differs from shards=1 run", shards)
		}
	}

	// And a different seed must actually change the outcome.
	spec := base
	spec.Seed = 6
	rep, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(normalize(rep))
	if string(got) == string(want) {
		t.Error("different seed produced an identical report")
	}
}

// TestChurnAccounting verifies the seat/session bookkeeping: total
// device-time is exactly seats × slots however many sessions churn
// through, every departure backfills, and lifetimes shorten as the
// hazard grows.
func TestChurnAccounting(t *testing.T) {
	prof := fixedProfile("a", 1, 1, 12, 10)
	const seats, slots = 50, 200

	noChurn, err := Run(Spec{Sessions: seats, Slots: slots, Profiles: []Profile{prof}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if noChurn.Total.Sessions != seats || noChurn.Total.Departures != 0 {
		t.Errorf("churn=0: sessions=%d departures=%d, want %d/0",
			noChurn.Total.Sessions, noChurn.Total.Departures, seats)
	}

	churned, err := Run(Spec{Sessions: seats, Slots: slots, Churn: 0.05, Profiles: []Profile{prof}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tot := churned.Total
	if tot.DeviceSlots != seats*slots {
		t.Errorf("device-slots %d, want %d (must be invariant under churn)", tot.DeviceSlots, seats*slots)
	}
	if tot.Sessions <= seats {
		t.Errorf("sessions %d under 5%% churn, want > %d seats", tot.Sessions, seats)
	}
	// Each seat runs a chain: every session except possibly the last per
	// seat departed, and a departure at the exact horizon end leaves no
	// replacement — so live sessions at the end ≤ seats.
	if live := tot.Sessions - tot.Departures; live < 0 || live > seats {
		t.Errorf("sessions-departures = %d, want within [0, %d]", live, seats)
	}
	// Mean lifetime 1/0.05 = 20 slots → roughly slots/20 sessions per
	// seat; sanity-bound it loosely.
	if tot.Sessions < 5*seats {
		t.Errorf("sessions %d, expected roughly %d at 5%% churn", tot.Sessions, 10*seats)
	}

	// A hazard so small that 1-c rounds to 1 must mean no departures,
	// not one-slot lifetimes.
	tiny, err := Run(Spec{Sessions: 4, Slots: 1000, Churn: 1e-17, Profiles: []Profile{prof}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tiny.Total.Sessions != 4 || tiny.Total.Departures != 0 {
		t.Errorf("churn=1e-17: sessions=%d departures=%d, want 4/0",
			tiny.Total.Sessions, tiny.Total.Departures)
	}
}

// TestVerdictCounts: a mixed fleet of known-stable and known-diverging
// classes must classify every session accordingly.
func TestVerdictCounts(t *testing.T) {
	rep, err := Run(Spec{
		Sessions: 24, Slots: 400, Seed: 2,
		Profiles: []Profile{
			fixedProfile("drain", 1, 1, 12, 10),    // service > work: converges
			fixedProfile("overload", 1, 1, 8, 10),  // work > service: diverges
			fixedProfile("critical", 1, 1, 10, 10), // work = service: bounded at 0
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.PerProfile) != 3 {
		t.Fatalf("got %d profile rows, want 3", len(rep.PerProfile))
	}
	for _, p := range rep.PerProfile {
		switch p.Name {
		case "drain", "critical":
			if p.Verdicts.Diverging != 0 || p.Verdicts.Converged != p.Sessions {
				t.Errorf("%s: verdicts %+v, want all %d converged", p.Name, p.Verdicts, p.Sessions)
			}
			if p.Backlog.Max != 0 {
				t.Errorf("%s: max backlog %v, want 0", p.Name, p.Backlog.Max)
			}
		case "overload":
			if p.Verdicts.Diverging != p.Sessions {
				t.Errorf("overload: verdicts %+v, want all %d diverging", p.Verdicts, p.Sessions)
			}
			// Deterministic overload: backlog grows by exactly 2/slot.
			if want := float64(2 * (400 - 1)); p.Backlog.Max != want {
				t.Errorf("overload: max backlog %v, want %v", p.Backlog.Max, want)
			}
		}
	}
	// Profile rows are sorted by name and sum to the fleet total.
	if rep.PerProfile[0].Name != "critical" || rep.PerProfile[1].Name != "drain" || rep.PerProfile[2].Name != "overload" {
		t.Errorf("profile rows not sorted: %s/%s/%s",
			rep.PerProfile[0].Name, rep.PerProfile[1].Name, rep.PerProfile[2].Name)
	}
	var sessions, deviceSlots int64
	for _, p := range rep.PerProfile {
		sessions += p.Sessions
		deviceSlots += p.DeviceSlots
	}
	if sessions != rep.Total.Sessions || deviceSlots != rep.Total.DeviceSlots {
		t.Errorf("per-profile sums (%d, %d) != total (%d, %d)",
			sessions, deviceSlots, rep.Total.Sessions, rep.Total.DeviceSlots)
	}
}

// TestFlatMemoryPerSession pins the no-per-frame-retention claim at the
// runner level: after a very long stable session, every piece of
// per-session state is bounded — the frame queue holds only frames in
// flight, the trajectory buffer is capped, and the sketches' bucket
// tables sit far below their hard cap.
func TestFlatMemoryPerSession(t *testing.T) {
	prof := fixedProfile("stable", 1, 1, 12, 10)
	pa := newProfileAccum(0.01)
	sess := newSessionRunner()
	rng := geom.NewRNG(1)
	if err := sess.reset(&prof, rng.Split(), rng.Split(), rng.Split()); err != nil {
		t.Fatal(err)
	}
	const slots = 200_000
	var depths depthCounts
	for t := 0; t < slots; t++ {
		sess.step(t, pa, &depths)
	}
	if n := sess.k.QueuedFrames(); n > 4 {
		t.Errorf("frame queue holds %d frames after %d slots, want O(frames in flight)", n, slots)
	}
	if n := len(sess.traj.Samples()); n > trajCap {
		t.Errorf("trajectory buffer %d exceeds cap %d", n, trajCap)
	}
	for name, sk := range map[string]interface{ BucketCount() int }{
		"sojourn": pa.sojourn, "backlog": pa.backlog, "utility": pa.utility,
	} {
		if n := sk.BucketCount(); n > 2048 {
			t.Errorf("%s sketch grew to %d buckets over %d slots", name, n, slots)
		}
	}
	if pa.deviceSlots != slots || depths[10] != slots {
		t.Errorf("deviceSlots %d and %d slots counted at depth 10, want %d", pa.deviceSlots, depths[10], slots)
	}
	if n := len(pa.sojourns); n > 64 {
		t.Errorf("sojourn counts grew to %d entries for sojourns of a slot or two", n)
	}
}

// TestSessionStepZeroAlloc pins the allocation-free slot loop: once a
// session's trajectory buffer and sketch buckets are warm, a slot that
// completes a frame (here every slot: 10 units of work against 12 of
// service) allocates nothing.
func TestSessionStepZeroAlloc(t *testing.T) {
	prof := fixedProfile("stable", 1, 1, 12, 10)
	pa := newProfileAccum(0.01)
	sess := newSessionRunner()
	rng := geom.NewRNG(1)
	if err := sess.reset(&prof, rng.Split(), rng.Split(), rng.Split()); err != nil {
		t.Fatal(err)
	}
	var depths depthCounts
	next := 0
	for ; next < 4*trajCap; next++ {
		sess.step(next, pa, &depths)
	}
	before := pa.framesCompleted
	allocs := testing.AllocsPerRun(5, func() {
		for i := 0; i < 100; i++ {
			sess.step(next, pa, &depths)
			next++
		}
	})
	if allocs != 0 {
		t.Errorf("session slot loop allocates (%v allocs per 100 slots)", allocs)
	}
	if got := pa.framesCompleted - before; got != 600 {
		t.Errorf("%d frames completed over the 600 measured slots, want one per slot", got)
	}
}

// TestBoundedBacklogDrops: a profile with MaxBacklog must propagate
// overflow into dropped frames/work, exactly as sim runs do.
func TestBoundedBacklogDrops(t *testing.T) {
	prof := fixedProfile("bounded", 1, 1, 8, 10) // overloaded by 2/slot
	prof.MaxBacklog = 20
	// Five 10-unit frames per slot against a 20-unit bound: overflow
	// removes whole frames from the tail, not just partial trims.
	prof.NewArrivals = func(*geom.RNG) queueing.ArrivalProcess {
		return &queueing.DeterministicArrivals{PerSlot: 5}
	}
	rep, err := Run(Spec{Sessions: 4, Slots: 300, Profiles: []Profile{prof}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	tot := rep.Total
	if tot.DroppedWork == 0 || tot.FramesDropped == 0 {
		t.Errorf("bounded overload dropped nothing: work=%v frames=%d", tot.DroppedWork, tot.FramesDropped)
	}
	if tot.Backlog.Max > 20 {
		t.Errorf("max backlog %v exceeds bound 20", tot.Backlog.Max)
	}
}

func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, Spec{
		Sessions: 100, Slots: 10_000, Seed: 1,
		Profiles: []Profile{fixedProfile("a", 1, 1, 12, 10)},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestPolicyFactoryError: a failing factory aborts the run with a seat-
// and profile-annotated error.
func TestPolicyFactoryError(t *testing.T) {
	prof := fixedProfile("broken", 1, 1, 12, 10)
	boom := errors.New("boom")
	prof.NewPolicy = func(*geom.RNG) (policy.Policy, error) { return nil, boom }
	_, err := Run(Spec{Sessions: 4, Slots: 10, Profiles: []Profile{prof}, Seed: 1})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want wrapped boom", err)
	}
}

// TestPolicyFactoryErrorNotMaskedByShards: when one shard's factory
// fails, the cancellations it fans out to sibling shards must not mask
// the root cause (regression: the first shard by index used to win).
func TestPolicyFactoryErrorNotMaskedByShards(t *testing.T) {
	boom := errors.New("boom")
	good := fixedProfile("good", 1, 1, 12, 10)
	// Rare failing class: weight keeps it off most seats, so the shard
	// that draws it errors while others run (long horizon) until the
	// cancel fan-out reaches them.
	bad := fixedProfile("bad", 0.02, 1, 12, 10)
	bad.NewPolicy = func(*geom.RNG) (policy.Policy, error) { return nil, boom }
	_, err := Run(Spec{
		Sessions: 64, Slots: 500_000, Shards: 8, Seed: 1,
		Profiles: []Profile{good, bad},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want the factory error, not a derived cancellation", err)
	}
}

// TestThroughputFields: the wall-clock fields are populated and the
// device-slot count matches the spec.
func TestThroughputFields(t *testing.T) {
	rep, err := Run(Spec{
		Sessions: 32, Slots: 100, Seed: 1,
		Profiles: []Profile{fixedProfile("a", 1, 1, 12, 10)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total.DeviceSlots != 3200 {
		t.Errorf("device-slots %d, want 3200", rep.Total.DeviceSlots)
	}
	if rep.Elapsed <= 0 || rep.DeviceSlotsPerSec <= 0 {
		t.Errorf("throughput fields unset: elapsed=%v rate=%v", rep.Elapsed, rep.DeviceSlotsPerSec)
	}
	if rep.Seats != 32 || rep.Slots != 100 || rep.Seed != 1 {
		t.Errorf("spec echo wrong: %+v", rep)
	}
}

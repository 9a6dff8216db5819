package queueing

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"qarv/internal/geom"
	"qarv/internal/stats"
)

func TestBacklogLindleyRecursion(t *testing.T) {
	var b Backlog
	if b.Level() != 0 {
		t.Fatal("zero value must start empty")
	}
	b.Step(10, 3) // 10 in, 3 out
	if b.Level() != 7 {
		t.Errorf("level = %v, want 7", b.Level())
	}
	b.Step(0, 100) // drain fully; never negative
	if b.Level() != 0 {
		t.Errorf("level = %v, want 0", b.Level())
	}
	served := b.Step(5, 2)
	if served != 2 || b.Level() != 3 {
		t.Errorf("served %v level %v", served, b.Level())
	}
}

func TestBacklogNegativeInputsClamp(t *testing.T) {
	var b Backlog
	b.Step(-5, -5)
	if b.Level() != 0 || b.arrived != 0 {
		t.Error("negative inputs must be treated as zero")
	}
}

func TestBacklogConservationProperty(t *testing.T) {
	// Property: arrived − served − level == 0 under any workload.
	f := func(seed uint64) bool {
		rng := geom.NewRNG(seed)
		var b Backlog
		for i := 0; i < 300; i++ {
			b.Step(rng.Range(0, 100), rng.Range(0, 90))
			if b.ConservationError() > 1e-6 {
				return false
			}
			if b.Level() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBoundedBacklogDrops(t *testing.T) {
	b := NewBoundedBacklog(100)
	b.Step(80, 0)
	if b.TotalDropped() != 0 {
		t.Error("no drop below the bound")
	}
	b.Step(50, 0) // only 20 fits
	if b.Level() != 100 {
		t.Errorf("level = %v, want 100", b.Level())
	}
	if b.TotalDropped() != 30 {
		t.Errorf("dropped = %v, want 30", b.TotalDropped())
	}
	if b.ConservationError() > 1e-9 {
		t.Error("conservation must hold for admitted work")
	}
	// Already-full queue drops everything.
	b.Step(10, 0)
	if b.TotalDropped() != 40 {
		t.Errorf("dropped = %v, want 40", b.TotalDropped())
	}
}

func TestFrameQueueFIFOAndPartialService(t *testing.T) {
	var q FrameQueue
	q.Push(10, 7, 0)
	q.Push(5, 7, 0)
	if q.Len() != 2 || q.WorkBacklog() != 15 {
		t.Fatalf("len %d backlog %v", q.Len(), q.WorkBacklog())
	}
	// Capacity 6 partially serves frame 0.
	done := q.Serve(6, 1)
	if len(done) != 0 {
		t.Fatalf("premature completion: %v", done)
	}
	if q.WorkBacklog() != 9 {
		t.Errorf("backlog = %v, want 9", q.WorkBacklog())
	}
	// Capacity 9 finishes both.
	done = q.Serve(9, 3)
	if len(done) != 2 {
		t.Fatalf("completed %d frames, want 2", len(done))
	}
	if done[0].ID != 0 || done[1].ID != 1 {
		t.Error("completion order must be FIFO")
	}
	if done[0].Sojourn != 3 || done[1].Sojourn != 3 {
		t.Errorf("sojourns = %d,%d", done[0].Sojourn, done[1].Sojourn)
	}
	if q.Len() != 0 || q.WorkBacklog() != 0 {
		t.Error("queue must be empty")
	}
}

// TestServeCarriesEveryFrameField pins what Serve copies into each
// Completed: every Frame field Push set, with Remaining 0, plus the
// completion slot and sojourn. Push and Serve write the fields one by
// one into reused slots, so a field added to Frame or Completed must be
// added there, and to the lists here, or this test fails.
func TestServeCarriesEveryFrameField(t *testing.T) {
	fields := func(v any) []string {
		var names []string
		for i := 0; i < reflect.TypeOf(v).NumField(); i++ {
			names = append(names, reflect.TypeOf(v).Field(i).Name)
		}
		return names
	}
	if got, want := fields(Frame{}), []string{"ID", "Work", "Remaining", "EnqueuedAt", "Depth"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Frame has fields %v, this test, Push and Serve know %v", got, want)
	}
	if got, want := fields(Completed{}), []string{"Frame", "CompletedAt", "Sojourn"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Completed has fields %v, this test and Serve know %v", got, want)
	}
	// Run frames through first, so the checked ones land in reused
	// slots of both buffers (compaction recycles the frame slots).
	var q FrameQueue
	for slot := 0; slot < 3*compactAfter; slot++ {
		q.Push(9, 13, slot)
		q.Push(1, 14, slot)
		q.Serve(10, slot)
	}
	if cap(q.frames) > 4*compactAfter {
		t.Fatalf("frame buffer grew to %d: compaction did not recycle slots", cap(q.frames))
	}
	id := q.nextID
	q.Push(2.5, 7, 1000)
	q.Push(0, 9, 1001)
	q.Push(4, 11, 1001)
	q.Serve(1, 1002) // a partial service leaves Work and Remaining apart
	if q.WorkBacklog() != 5.5 {
		t.Errorf("work backlog %v after the partial service, want 5.5", q.WorkBacklog())
	}
	done := q.Serve(6, 1004)
	want := []Completed{
		{Frame: Frame{ID: id, Work: 2.5, EnqueuedAt: 1000, Depth: 7}, CompletedAt: 1004, Sojourn: 4},
		{Frame: Frame{ID: id + 1, Work: 0, EnqueuedAt: 1001, Depth: 9}, CompletedAt: 1004, Sojourn: 3},
		{Frame: Frame{ID: id + 2, Work: 4, EnqueuedAt: 1001, Depth: 11}, CompletedAt: 1004, Sojourn: 3},
	}
	if !reflect.DeepEqual(done, want) {
		t.Errorf("Serve completed %+v, want %+v", done, want)
	}
}

// TestZeroWorkFrameCompletesInItsSlot drives a scalar Backlog and a
// FrameQueue as sim.Kernel does (the backlog's served work is the frame
// queue's capacity). A zero-work frame pushed into an empty queue makes
// the backlog serve nothing, yet it must complete in its own slot with
// sojourn 0, not wait for the next slot that serves positive work.
func TestZeroWorkFrameCompletesInItsSlot(t *testing.T) {
	var b Backlog
	var q FrameQueue
	q.Push(0, 6, 4)
	served := b.Step(0, 10)
	done := q.Serve(served, 4)
	if served != 0 || len(done) != 1 || done[0].Sojourn != 0 || done[0].CompletedAt != 4 || q.Len() != 0 {
		t.Fatalf("served %v, completed %+v, %d left; want 0 served and one completion at slot 4 with sojourn 0",
			served, done, q.Len())
	}
	// Behind positive work, a zero-work frame completes with the frame
	// that drains the capacity exactly.
	q.Push(5, 6, 5)
	q.Push(0, 6, 5)
	q.Push(1, 6, 5)
	if done := q.Serve(5, 5); len(done) != 2 || done[1].ID != 2 || q.WorkBacklog() != 1 {
		t.Errorf("completed %+v with %v work left, want frames 1 and 2 and 1 left", done, q.WorkBacklog())
	}
	// Negative and NaN capacity serve nothing, zero-work frames aside.
	for _, c := range []float64{-3, math.NaN()} {
		if done := q.Serve(c, 6); done != nil || q.WorkBacklog() != 1 {
			t.Errorf("Serve(%v) completed %+v, left %v work; want nothing and 1", c, done, q.WorkBacklog())
		}
	}
}

func TestFrameQueueMatchesScalarBacklog(t *testing.T) {
	// Property: driving FrameQueue and Backlog with identical arrivals and
	// service keeps WorkBacklog == Level.
	rng := geom.NewRNG(44)
	var q FrameQueue
	var b Backlog
	for slot := 0; slot < 500; slot++ {
		work := rng.Range(0, 50)
		q.Push(work, 6, slot)
		cap := rng.Range(0, 55)
		q.Serve(cap, slot)
		b.Step(work, cap)
		if math.Abs(q.WorkBacklog()-b.Level()) > 1e-6 {
			t.Fatalf("slot %d: frame backlog %v != scalar %v", slot, q.WorkBacklog(), b.Level())
		}
	}
}

func TestFrameQueueDropTail(t *testing.T) {
	var q FrameQueue
	q.Push(10, 5, 0)
	q.Push(4, 5, 1)
	q.Push(6, 5, 2)

	// Partial trim of the newest frame only.
	frames, removed := q.DropTail(2)
	if frames != 0 || removed != 2 {
		t.Fatalf("DropTail(2) = %d, %v", frames, removed)
	}
	if q.Len() != 3 || q.WorkBacklog() != 18 {
		t.Fatalf("len %d backlog %v after partial trim", q.Len(), q.WorkBacklog())
	}

	// Crossing a frame boundary removes the whole tail frame and trims
	// the next-newest.
	frames, removed = q.DropTail(5)
	if frames != 1 || removed != 5 {
		t.Fatalf("DropTail(5) = %d, %v", frames, removed)
	}
	if q.Len() != 2 || q.WorkBacklog() != 13 {
		t.Fatalf("len %d backlog %v after boundary drop", q.Len(), q.WorkBacklog())
	}

	// Over-draining stops at empty and reports what was removed.
	frames, removed = q.DropTail(100)
	if frames != 2 || removed != 13 {
		t.Fatalf("DropTail(100) = %d, %v", frames, removed)
	}
	if q.Len() != 0 || q.WorkBacklog() != 0 {
		t.Error("queue must be empty after over-drain")
	}

	// FIFO service still works after tail drops interleave with serves.
	q.Push(3, 5, 10)
	q.Push(3, 5, 10)
	q.DropTail(3)
	done := q.Serve(3, 11)
	if len(done) != 1 || done[0].EnqueuedAt != 10 {
		t.Fatalf("served %v after drop", done)
	}
}

func TestFrameQueueBoundedDriveMatchesBoundedBacklog(t *testing.T) {
	// Property: a bounded Backlog and a FrameQueue driven with the same
	// arrivals/service stay equal slot-by-slot when overflow is
	// propagated with DropTail — the drop-divergence fix.
	rng := geom.NewRNG(9)
	b := NewBoundedBacklog(120)
	var q FrameQueue
	for slot := 0; slot < 2000; slot++ {
		work := rng.Range(0, 60)
		q.Push(work, 6, slot)
		droppedBefore := b.TotalDropped()
		served := b.Step(work, rng.Range(0, 50))
		if d := b.TotalDropped() - droppedBefore; d > 0 {
			q.DropTail(d)
		}
		q.Serve(served, slot)
		if math.Abs(q.WorkBacklog()-b.Level()) > 1e-9 {
			t.Fatalf("slot %d: frame backlog %v != scalar %v", slot, q.WorkBacklog(), b.Level())
		}
	}
	if b.TotalDropped() == 0 {
		t.Fatal("test never exercised overflow")
	}
}

func TestFrameQueueMemoryStaysFlat(t *testing.T) {
	// A million push/serve cycles with ~1 frame in flight must not pin
	// the whole history: the compacting queue keeps its backing array
	// near the live size.
	var q FrameQueue
	for slot := 0; slot < 1_000_000; slot++ {
		q.Push(1, 5, slot)
		q.Serve(1, slot)
	}
	if q.Len() != 0 {
		t.Fatalf("queue not drained: %d", q.Len())
	}
	if c := cap(q.frames); c > 4*compactAfter {
		t.Errorf("backing array cap = %d frames after 1M cycles, want ≤ %d", c, 4*compactAfter)
	}
}

// TestFrameQueueResetReusesBuffers: Reset behaves like a zero queue
// (empty, IDs from 0) but keeps the frame and completion buffers, so a
// queue reused across runs serves without allocating.
func TestFrameQueueResetReusesBuffers(t *testing.T) {
	var q FrameQueue
	for slot := 0; slot < 100; slot++ {
		q.Push(1, 3, slot)
		q.Push(1, 3, slot)
		q.Serve(1, slot)
	}
	q.Reset()
	if q.Len() != 0 || q.WorkBacklog() != 0 {
		t.Fatalf("after Reset: %d frames, %v work queued", q.Len(), q.WorkBacklog())
	}
	if id := q.Push(2, 4, 7); id != 0 {
		t.Fatalf("first ID after Reset = %d, want 0", id)
	}
	if done := q.Serve(2, 9); len(done) != 1 || done[0].ID != 0 || done[0].Sojourn != 2 {
		t.Fatalf("Serve after Reset = %+v", done)
	}
	if done := q.Serve(5, 10); done != nil {
		t.Fatalf("Serve of an empty queue = %+v, want nil", done)
	}
	allocs := testing.AllocsPerRun(10, func() {
		q.Reset()
		for slot := 0; slot < 50; slot++ {
			q.Push(1, 3, slot)
			q.Serve(1, slot)
		}
	})
	if allocs != 0 {
		t.Errorf("push+serve after Reset allocates (%v allocs per 50 slots)", allocs)
	}
}

func BenchmarkFrameQueueLongRun(b *testing.B) {
	// Memory must stay flat over arbitrarily long runs (the re-slicing
	// queue pinned every completed frame): allocs/op ≈ 0 at steady
	// state.
	b.ReportAllocs()
	var q FrameQueue
	for i := 0; i < b.N; i++ {
		q.Push(2, 5, i)
		q.Serve(2, i)
	}
}

func TestArrivalProcesses(t *testing.T) {
	det := &DeterministicArrivals{PerSlot: 2}
	if det.Frames(0) != 2 || det.Frames(99) != 2 {
		t.Error("deterministic arrivals must be constant")
	}
	if (&DeterministicArrivals{PerSlot: -1}).Frames(0) != 0 {
		t.Error("negative per-slot must clamp")
	}

	pois := &PoissonArrivals{Mean: 3, RNG: geom.NewRNG(7)}
	sum := 0
	for i := 0; i < 10000; i++ {
		sum += pois.Frames(i)
	}
	if mean := float64(sum) / 10000; math.Abs(mean-3) > 0.15 {
		t.Errorf("poisson mean = %v", mean)
	}
	if (&PoissonArrivals{Mean: 2.4}).Frames(0) != 2 {
		t.Error("nil RNG must round the mean")
	}

	oo := &OnOffArrivals{OnSlots: 3, OffSlots: 2, PerSlotOn: 4}
	want := []int{4, 4, 4, 0, 0, 4, 4}
	for i, w := range want {
		if oo.Frames(i) != w {
			t.Fatalf("on-off slot %d = %d, want %d", i, oo.Frames(i), w)
		}
	}
	if (&OnOffArrivals{PerSlotOn: 5}).Frames(3) != 5 {
		t.Error("degenerate on-off period must stay on")
	}
}

func TestClassifyTrajectory(t *testing.T) {
	// Diverging ramp.
	ramp := make([]float64, 200)
	for i := range ramp {
		ramp[i] = float64(i) * 50
	}
	v, err := ClassifyTrajectory(ramp, 0)
	if err != nil || v != VerdictDiverging {
		t.Errorf("ramp verdict = %v (%v)", v, err)
	}
	// Converged to zero after a transient.
	conv := make([]float64, 200)
	for i := range conv {
		if i < 20 {
			conv[i] = float64(20 - i)
		}
	}
	v, err = ClassifyTrajectory(conv, 0)
	if err != nil || v != VerdictConverged {
		t.Errorf("converged verdict = %v (%v)", v, err)
	}
	// Stabilized plateau with small oscillation.
	plat := make([]float64, 200)
	for i := range plat {
		plat[i] = 1000 + 30*math.Sin(float64(i)/5)
	}
	v, err = ClassifyTrajectory(plat, 0)
	if err != nil || v != VerdictStabilized {
		t.Errorf("plateau verdict = %v (%v)", v, err)
	}
	// All-zero trajectory converges trivially.
	v, err = ClassifyTrajectory(make([]float64, 50), 0)
	if err != nil || v != VerdictConverged {
		t.Errorf("zero verdict = %v (%v)", v, err)
	}
	if _, err := ClassifyTrajectory([]float64{1, 2}, 0); !errors.Is(err, ErrTooShort) {
		t.Errorf("short input: %v", err)
	}
}

// TestIndexSlopeMatchesOLS requires ClassifyTrajectory's inline slope to
// equal stats.OLS over an explicit x = 0..n−1 slice bit for bit, and the
// classification to allocate nothing.
func TestIndexSlopeMatchesOLS(t *testing.T) {
	rng := geom.NewRNG(37)
	var series [][]float64
	for _, n := range []int{2, 3, 4, 8, 9, 100, 1001, 4096} {
		random, constant, ramp := make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range random {
			random[i] = rng.Range(-1e6, 1e9)
			constant[i] = 1234.5
			ramp[i] = 0.1 + 37.3*float64(i)
		}
		series = append(series, random, constant, ramp)
	}
	for _, ys := range series {
		xs := make([]float64, len(ys))
		for i := range xs {
			xs[i] = float64(i)
		}
		fit, err := stats.OLS(xs, ys)
		if err != nil {
			t.Fatal(err)
		}
		if got := indexSlope(ys); math.Float64bits(got) != math.Float64bits(fit.Slope) {
			t.Errorf("%d values from %v: slope %v, OLS %v", len(ys), ys[0], got, fit.Slope)
		}
	}
	ramp := series[len(series)-1]
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := ClassifyTrajectory(ramp, 0); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("ClassifyTrajectory allocates %v times per call", allocs)
	}
}

func TestVerdictString(t *testing.T) {
	if VerdictDiverging.String() != "diverging" ||
		VerdictConverged.String() != "converged" ||
		VerdictStabilized.String() != "stabilized" ||
		Verdict(0).String() != "unknown" {
		t.Error("verdict strings wrong")
	}
}

func TestLittleEstimator(t *testing.T) {
	// Deterministic D/D/1: 1 frame/slot of work 1, capacity 1 ⇒ each frame
	// completes in its arrival slot (sojourn 0), queue empty after service.
	var q FrameQueue
	var est LittleEstimator
	for slot := 0; slot < 100; slot++ {
		q.Push(1, 5, slot)
		est.ObserveSlot(float64(q.Len()), 1)
		for _, c := range q.Serve(1, slot) {
			est.ObserveCompletion(c.Sojourn)
		}
	}
	if est.Lambda() != 1 {
		t.Errorf("lambda = %v", est.Lambda())
	}
	if est.W() != 0 {
		t.Errorf("W = %v", est.W())
	}
	// Under-loaded stable system: Little's residual small. L counts the
	// momentary in-service frame (observed before service), W is 0, so the
	// gap here is the L observation itself — both are ~1 and ~0; verify
	// law gap on a delayed system instead.
	var q2 FrameQueue
	var est2 LittleEstimator
	for slot := 0; slot < 2000; slot++ {
		q2.Push(2, 5, slot) // work 2 per slot
		for _, c := range q2.Serve(2, slot) {
			est2.ObserveCompletion(c.Sojourn + 1) // count service slot
		}
		est2.ObserveSlot(q2.WorkBacklog()/2+1, 1) // avg frames incl. in-service
	}
	if gap := est2.LawGap(); gap > 0.1 {
		t.Errorf("Little's law gap = %v", gap)
	}
	var empty LittleEstimator
	if empty.L() != 0 || empty.Lambda() != 0 || empty.W() != 0 {
		t.Error("empty estimator must report zeros")
	}
}

func TestCancelCheckStride(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	c := NewCancelCheck(ctx, 4)
	for i := 0; i < 16; i++ {
		if err := c.Check(); err != nil {
			t.Fatalf("live context canceled at iteration %d: %v", i, err)
		}
	}
	cancel()
	// The next poll boundary must surface the cancellation; at stride 4
	// that is at most 4 iterations away.
	var got error
	for i := 0; i < 4; i++ {
		if got = c.Check(); got != nil {
			break
		}
	}
	if !errors.Is(got, context.Canceled) {
		t.Errorf("post-cancel Check = %v, want context.Canceled", got)
	}
}

func TestCancelCheckDefaults(t *testing.T) {
	// Nil context and non-positive stride take safe defaults.
	c := NewCancelCheck(nil, 0)
	for i := 0; i < 3*PollEvery; i++ {
		if err := c.Check(); err != nil {
			t.Fatalf("nil-context checker canceled: %v", err)
		}
	}
}

package netem

import (
	"errors"
	"math"
	"testing"

	"qarv/internal/queueing"
)

func mustLink(t *testing.T, cfg LinkConfig) *Link {
	t.Helper()
	l, err := NewLink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// uplink is the serializer the uplink runs put in front of a Link: the
// slot kernel's byte backlog and frame queue, served each slot at the
// link's capacity.
type uplink struct {
	q      queueing.Backlog
	frames queueing.FrameQueue
	done   []queueing.Completed
}

// step enqueues frames (bytes each) at slot t, serves capacity, and
// keeps the frames completed this slot.
func (u *uplink) step(t int, capacity float64, frames ...float64) {
	var work float64
	for _, b := range frames {
		u.frames.Push(b, 0, t)
		work += b
	}
	served := u.q.Step(work, capacity)
	u.done = append(u.done, u.frames.Serve(served, t)...)
}

func TestLinkValidation(t *testing.T) {
	if _, err := NewLink(LinkConfig{BytesPerSlot: 0}); !errors.Is(err, ErrBadBandwidth) {
		t.Errorf("zero bandwidth: %v", err)
	}
	if _, err := NewLink(LinkConfig{BytesPerSlot: 1, LossProb: 1}); !errors.Is(err, ErrBadLoss) {
		t.Errorf("loss=1: %v", err)
	}
	if _, err := NewLink(LinkConfig{BytesPerSlot: 1, LatencySlots: -1}); !errors.Is(err, ErrBadLatency) {
		t.Errorf("negative latency: %v", err)
	}
}

func TestLinkTransmissionTiming(t *testing.T) {
	l := mustLink(t, LinkConfig{BytesPerSlot: 100, LatencySlots: 2})
	// 300 bytes at 100 B/slot serialize in slots 0-2; the last byte
	// leaves in slot 2 and arrives 2 slots of latency later.
	var u uplink
	u.step(0, 100, 300)
	u.step(1, 100)
	u.step(2, 100)
	if len(u.done) != 1 || u.done[0].CompletedAt != 2 {
		t.Fatalf("completions %+v, want one at slot 2", u.done)
	}
	slot, lost := l.Deliver(float64(u.done[0].CompletedAt))
	if lost {
		t.Fatal("lossless link dropped")
	}
	if slot != 4 {
		t.Errorf("delivered at %v, want 4", slot)
	}
}

func TestLinkFIFOQueueing(t *testing.T) {
	l := mustLink(t, LinkConfig{BytesPerSlot: 100})
	// Two back-to-back frames at slot 0: the second queues behind the
	// first and finishes a slot after it.
	var u uplink
	u.step(0, 100, 200, 100)
	if got := u.q.Level(); got != 200 {
		t.Errorf("backlog after slot 0 = %v, want 200", got)
	}
	u.step(1, 100)
	u.step(2, 100)
	if len(u.done) != 2 || u.done[0].ID != 0 || u.done[0].CompletedAt != 1 ||
		u.done[1].ID != 1 || u.done[1].CompletedAt != 2 {
		t.Fatalf("completions %+v, want frame 0 at slot 1, then frame 1 at slot 2", u.done)
	}
	// Without jitter the propagation leg keeps that order.
	first, _ := l.Deliver(float64(u.done[0].CompletedAt))
	second, _ := l.Deliver(float64(u.done[1].CompletedAt))
	if first != 1 || second != 2 {
		t.Errorf("delivered at %v, %v, want 1, 2", first, second)
	}
	// The queue drains fully once idle.
	u.step(3, 100)
	if got := u.q.Level(); got != 0 {
		t.Errorf("backlog after idle = %v, want 0", got)
	}
}

func TestLinkLossRate(t *testing.T) {
	l := mustLink(t, LinkConfig{BytesPerSlot: 1000, LossProb: 0.25, Seed: 5})
	const n = 20000
	dropped := 0
	for i := 0; i < n; i++ {
		if _, lost := l.Deliver(float64(i)); lost {
			dropped++
		}
	}
	rate := float64(dropped) / n
	if math.Abs(rate-0.25) > 0.02 {
		t.Errorf("loss rate = %v, want ~0.25", rate)
	}
}

func TestLinkDeliverPropagationLeg(t *testing.T) {
	// Deliver applies latency, jitter and loss together: survivors
	// arrive no earlier than the latency floor.
	l := mustLink(t, LinkConfig{BytesPerSlot: 100, LatencySlots: 2, JitterSlots: 0.5, LossProb: 0.25, Seed: 5})
	const n = 20000
	dropped := 0
	for i := 0; i < n; i++ {
		slot, lost := l.Deliver(float64(i))
		if lost {
			dropped++
			continue
		}
		if slot < float64(i)+2 {
			t.Fatalf("delivery %v earlier than latency floor", slot)
		}
	}
	if rate := float64(dropped) / n; math.Abs(rate-0.25) > 0.02 {
		t.Errorf("loss rate = %v, want ~0.25", rate)
	}
}

func TestLinkJitterNonNegativeAndVarying(t *testing.T) {
	l := mustLink(t, LinkConfig{BytesPerSlot: 1e6, LatencySlots: 1, JitterSlots: 0.5, Seed: 6})
	seen := map[float64]bool{}
	for i := 0; i < 200; i++ {
		slot, _ := l.Deliver(float64(i * 10))
		if slot < float64(i*10)+1 {
			t.Fatalf("delivery %v earlier than latency floor", slot)
		}
		seen[slot-float64(i*10)] = true
	}
	if len(seen) < 10 {
		t.Error("jitter produced no variation")
	}
}

func TestLinkDeterministicPerSeed(t *testing.T) {
	mk := func() []float64 {
		l := mustLink(t, LinkConfig{BytesPerSlot: 50, LatencySlots: 1, JitterSlots: 1, LossProb: 0.1, Seed: 9})
		out := make([]float64, 100)
		for i := range out {
			slot, lost := l.Deliver(float64(i))
			if lost {
				out[i] = -1
			} else {
				out[i] = slot
			}
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different link traces")
		}
	}
}

// ---------------------------------------------------------------------------
// Dynamic-bandwidth edge cases: the contracts the dynamics layer leans on.
// ---------------------------------------------------------------------------

// Bytes are bytes: when the rate changes while frames are queued, the
// backlog keeps their unserved bytes and drains at whatever rate each
// slot serves — Q(t+1) = max(Q(t) + a(t) − b(t), 0), never a schedule
// frozen at enqueue time.
func TestBacklogBytesExactUnderBandwidthChange(t *testing.T) {
	var u uplink
	u.step(0, 100, 200, 100)
	if got := u.q.Level(); got != 200 {
		t.Fatalf("backlog after slot 0 = %v, want 200", got)
	}
	// A 10x drop does not revalue the queued 200 bytes; it drains 10
	// bytes per slot.
	u.step(1, 10)
	if got := u.q.Level(); got != 190 {
		t.Fatalf("backlog after drop = %v, want 190", got)
	}
	// New frames join the same account, and recovery drains it at the
	// recovered rate at once.
	u.step(2, 10, 50)
	if got := u.q.Level(); got != 230 {
		t.Fatalf("backlog with new frame = %v, want 230", got)
	}
	u.step(3, 100)
	if got := u.q.Level(); got != 130 {
		t.Fatalf("backlog after recovery = %v, want 130", got)
	}
	u.step(4, 100)
	u.step(5, 100)
	if got := u.q.Level(); got != 0 {
		t.Fatalf("backlog after drain = %v, want 0", got)
	}
	// Frame by frame: the first frame's last byte leaves in slot 3, the
	// second's in slot 4 and the late frame's in slot 5.
	want := []int{3, 4, 5}
	if len(u.done) != len(want) {
		t.Fatalf("completions %+v, want %d", u.done, len(want))
	}
	for i, c := range u.done {
		if c.CompletedAt != want[i] {
			t.Errorf("frame %d completed at %d, want %d", c.ID, c.CompletedAt, want[i])
		}
	}
}

func TestBacklogBytesCountsLostFramesWhileSerializing(t *testing.T) {
	// LossProb=0.9 with a fixed seed: most frames drop, but loss happens
	// on the propagation leg, after the frame's bytes have serialized, so
	// the backlog counts every frame until it is served.
	l := mustLink(t, LinkConfig{BytesPerSlot: 10, LossProb: 0.9, Seed: 2})
	var u uplink
	frames := make([]float64, 10)
	for i := range frames {
		frames[i] = 100
	}
	u.step(0, 10, frames...)
	if got := u.q.Level(); got != 990 {
		t.Fatalf("backlog = %v, want 990 (every frame occupies the uplink)", got)
	}
	for slot := 1; slot < 100; slot++ {
		u.step(slot, 10)
	}
	if len(u.done) != 10 {
		t.Fatalf("%d frames completed, want 10", len(u.done))
	}
	lost := 0
	for _, c := range u.done {
		if _, dropped := l.Deliver(float64(c.CompletedAt)); dropped {
			lost++
		}
	}
	if lost == 0 {
		t.Fatal("seed produced no drops; pick another seed")
	}
}

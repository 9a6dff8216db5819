package netem

import (
	"errors"
	"math"
	"testing"
)

func mustLink(t *testing.T, cfg LinkConfig) *Link {
	t.Helper()
	l, err := NewLink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// queueDelay is how long a frame arriving at slot now would wait for
// the link, read from a zero-byte probe's QueueingDelay: the probe
// occupies no serialization time, so it leaves the busy period and the
// backlog as they were.
func queueDelay(l *Link, now int) float64 { return l.Transmit(0, now).QueueingDelay }

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
	// 300 bytes at 100 B/slot: tx 3 slots + 2 latency = delivered at 5.
	tx := l.Transmit(300, 0)
	if tx.Dropped {
		t.Fatal("lossless link dropped")
	}
	if tx.StartSlot != 0 || tx.QueueingDelay != 0 {
		t.Errorf("start=%v queue=%v", tx.StartSlot, tx.QueueingDelay)
	}
	if tx.DeliveredSlot != 5 {
		t.Errorf("delivered at %v, want 5", tx.DeliveredSlot)
	}
}

func TestLinkFIFOQueueing(t *testing.T) {
	l := mustLink(t, LinkConfig{BytesPerSlot: 100})
	// Two back-to-back frames at slot 0: the second queues behind the first.
	first := l.Transmit(200, 0) // busy until 2
	second := l.Transmit(100, 0)
	if first.DeliveredSlot != 2 {
		t.Errorf("first delivered %v", first.DeliveredSlot)
	}
	if second.StartSlot != 2 || second.QueueingDelay != 2 {
		t.Errorf("second start=%v queue=%v, want 2/2", second.StartSlot, second.QueueingDelay)
	}
	if second.DeliveredSlot != 3 {
		t.Errorf("second delivered %v, want 3", second.DeliveredSlot)
	}
	// The busy period holds both frames' bytes until it drains.
	if d := queueDelay(l, 0); d != 3 {
		t.Errorf("queue delay at 0 = %v, want 3", d)
	}
	if got := l.BacklogBytes(0); got != 300 {
		t.Errorf("backlog at 0 = %v, want 300", got)
	}
	if d := queueDelay(l, 10); d != 0 {
		t.Errorf("queue delay after idle = %v, want 0", d)
	}
	if got := l.BacklogBytes(10); got != 0 {
		t.Errorf("backlog after idle = %v, want 0", got)
	}
}

func TestLinkLossRate(t *testing.T) {
	l := mustLink(t, LinkConfig{BytesPerSlot: 1000, LossProb: 0.25, Seed: 5})
	const n = 20000
	dropped := 0
	for i := 0; i < n; i++ {
		if l.Transmit(1, i).Dropped {
			dropped++
		}
	}
	rate := float64(dropped) / n
	if math.Abs(rate-0.25) > 0.02 {
		t.Errorf("loss rate = %v, want ~0.25", rate)
	}
}

func TestLinkDeliverPropagationLeg(t *testing.T) {
	// Deliver applies latency/jitter/loss without touching the
	// serializer: the busy period is unchanged.
	l := mustLink(t, LinkConfig{BytesPerSlot: 100, LatencySlots: 2, JitterSlots: 0.5, LossProb: 0.25, Seed: 5})
	const n = 20000
	dropped := 0
	for i := 0; i < n; i++ {
		slot, lost := l.Deliver(10, float64(i))
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
	if got := l.BacklogBytes(0); got != 0 {
		t.Errorf("Deliver occupied the serializer: backlog %v", got)
	}
}

func TestLinkJitterNonNegativeAndVarying(t *testing.T) {
	l := mustLink(t, LinkConfig{BytesPerSlot: 1e6, LatencySlots: 1, JitterSlots: 0.5, Seed: 6})
	seen := map[float64]bool{}
	for i := 0; i < 200; i++ {
		tx := l.Transmit(1, i*10)
		if tx.DeliveredSlot < float64(i*10)+1 {
			t.Fatalf("delivery %v earlier than latency floor", tx.DeliveredSlot)
		}
		seen[tx.DeliveredSlot-float64(i*10)] = true
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
			tx := l.Transmit(25, i)
			if tx.Dropped {
				out[i] = -1
			} else {
				out[i] = tx.DeliveredSlot
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

func TestLinkZeroByteFrames(t *testing.T) {
	l := mustLink(t, LinkConfig{BytesPerSlot: 10, LatencySlots: 1})
	tx := l.Transmit(0, 5)
	if tx.DeliveredSlot != 6 {
		t.Errorf("zero-byte delivery = %v, want 6", tx.DeliveredSlot)
	}
	tx = l.Transmit(-10, 7)
	if tx.DeliveredSlot != 8 {
		t.Errorf("negative bytes must clamp: %v", tx.DeliveredSlot)
	}
}

// ---------------------------------------------------------------------------
// Dynamic-bandwidth edge cases: the contracts the dynamics layer leans on.
// ---------------------------------------------------------------------------

// Regression pin: a rate drop while the link is busy must not
// retroactively change already-scheduled deliveries. Schedules freeze
// at Transmit time; only transmissions enqueued after ApplyRate see the
// new rate.
func TestApplyRateMidBusyDoesNotRescheduleDeliveries(t *testing.T) {
	l := mustLink(t, LinkConfig{BytesPerSlot: 100, LatencySlots: 1})
	first := l.Transmit(200, 0)  // serializes [0,2), delivered 3
	second := l.Transmit(100, 0) // queued: serializes [2,3), delivered 4
	if first.DeliveredSlot != 3 || second.DeliveredSlot != 4 {
		t.Fatalf("baseline schedule: %v, %v", first.DeliveredSlot, second.DeliveredSlot)
	}

	// Drop the rate 10x at slot 1 while both frames are on the link.
	l.ApplyRate(1, 10)
	// The busy period is unchanged: a frame arriving at slot 1 still
	// waits exactly until slot 3, and serializes at the new rate from
	// there.
	third := l.Transmit(10, 1)
	if third.StartSlot != 3 || third.QueueingDelay != 2 {
		t.Errorf("third start=%v queue=%v, want 3/2 (schedules frozen)", third.StartSlot, third.QueueingDelay)
	}
	if third.DeliveredSlot != 5 { // 3 + 10/10 + 1 latency
		t.Errorf("third delivered = %v, want 5", third.DeliveredSlot)
	}
	// Raising the rate back mid-busy does not accelerate the queue
	// either: the next frame still waits for the slow one to finish.
	l.ApplyRate(1, 1000)
	fourth := l.Transmit(1000, 1)
	if fourth.StartSlot != 4 || fourth.QueueingDelay != 3 {
		t.Errorf("fourth start=%v queue=%v, want 4/3", fourth.StartSlot, fourth.QueueingDelay)
	}
	if fourth.DeliveredSlot != 6 { // 4 + 1000/1000 + 1 latency
		t.Errorf("fourth delivered = %v, want 6", fourth.DeliveredSlot)
	}
}

// ApplyRate mid-busy-period: BacklogBytes values every frame against
// the rate its schedule was built with, never the current rate.
func TestBacklogBytesExactUnderBandwidthChange(t *testing.T) {
	l := mustLink(t, LinkConfig{BytesPerSlot: 100})
	l.Transmit(200, 0)           // serializes [0,2)
	second := l.Transmit(100, 0) // serializes [2,3)
	if got := l.BacklogBytes(0); got != 300 {
		t.Fatalf("backlog at 0 = %v, want 300", got)
	}
	// Half of the first frame is out the door at slot 1.
	if got := l.BacklogBytes(1); got != 200 {
		t.Fatalf("backlog at 1 = %v, want 200", got)
	}
	// A 10x drop must not revalue the queued 200 bytes (the naive
	// remaining-busy-time × current-rate estimate would report
	// 2 slots * 10 B/slot = 20).
	l.ApplyRate(1, 10)
	if got := l.BacklogBytes(1); got != 200 {
		t.Fatalf("backlog after drop = %v, want 200", got)
	}
	if est := (second.DeliveredSlot - 1) * 10; est == 200 {
		t.Fatalf("estimate unexpectedly exact (%v); the regression would be invisible", est)
	}
	// New frames at the new rate join the exact accounting.
	l.Transmit(50, 1) // serializes [3,8) at 10 B/slot
	if got := l.BacklogBytes(1); got != 250 {
		t.Fatalf("backlog with new frame = %v, want 250", got)
	}
	if got := l.BacklogBytes(5.5); got != 25 { // half of the 50-byte frame left
		t.Fatalf("backlog mid-serialization = %v, want 25", got)
	}
	if got := l.BacklogBytes(100); got != 0 {
		t.Fatalf("backlog after drain = %v, want 0", got)
	}
}

// For a constant-rate link the exact accounting agrees with the
// remaining busy time × rate, read off the returned schedules: with no
// latency, the last transmission's delivery is the end of the busy
// period.
func TestBacklogBytesMatchesEstimateOnStaticLink(t *testing.T) {
	l := mustLink(t, LinkConfig{BytesPerSlot: 128})
	for slot := 0; slot < 50; slot++ {
		tx := l.Transmit(float64(100+slot*7), slot)
		got := l.BacklogBytes(float64(slot))
		est := (tx.DeliveredSlot - float64(slot)) * 128
		if math.Abs(got-est) > 1e-6*math.Max(1, est) {
			t.Fatalf("slot %d: exact %v vs estimate %v", slot, got, est)
		}
	}
}

func TestBacklogBytesCountsLostFramesWhileSerializing(t *testing.T) {
	// LossProb=0.9 with a fixed seed: most frames drop, but their bytes
	// still occupy the serializer, so backlog must count them.
	l := mustLink(t, LinkConfig{BytesPerSlot: 10, LossProb: 0.9, Seed: 2})
	sawDrop := false
	for i := 0; i < 10; i++ {
		if l.Transmit(100, 0).Dropped {
			sawDrop = true
		}
	}
	if !sawDrop {
		t.Fatal("seed produced no drops; pick another seed")
	}
	if got := l.BacklogBytes(0); got != 1000 {
		t.Fatalf("backlog = %v, want 1000 (lost frames occupy the uplink)", got)
	}
}

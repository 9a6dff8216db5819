package sim

import "qarv/internal/queueing"

// Kernel is Algorithm 1's per-slot cycle for one device (observe Q(t),
// decide d(t), enqueue the arrivals' workload, serve b(t)) over the
// device's scalar backlog and timestamped frame queue. sim runs and
// fleet sessions all step a Kernel and differ only in what they record
// from each SlotEvent. A zero Kernel must be armed by Reset before Step.
type Kernel struct {
	dev     Device
	backlog queueing.Backlog
	frames  queueing.FrameQueue
}

// Reset arms the kernel for a fresh device with empty queues. The frame
// queue keeps its buffers, so a kernel reused across sessions does not
// reallocate them.
func (k *Kernel) Reset(dev Device) {
	k.dev = dev
	k.backlog = *queueing.NewBoundedBacklog(dev.MaxBacklog)
	k.frames.Reset()
}

// Step advances the device one slot against capacity b(t), filling
// every field of s but Device, which it leaves as it is.
// Negative arrival counts from custom processes are clamped to 0 frames.
func (k *Kernel) Step(t int, capacity float64, s *SlotEvent) {
	q := k.backlog.Level()         // line 4 of Algorithm 1: observe Q(t)
	d := k.dev.Policy.Decide(t, q) // lines 5–11: closed-form decision
	s.Slot, s.Backlog, s.Depth, s.Utility = t, q, d, k.dev.Utility.Utility(d)

	// Negative counts from custom processes are clamped so they can't
	// drive λ (and LawGap) negative.
	n := max(k.dev.Arrivals.Frames(t), 0)
	var work float64
	for i := 0; i < n; i++ {
		w := k.dev.Cost.FrameCost(d)
		work += w
		k.frames.Push(w, d, t)
	}
	s.Frames, s.Arrived = n, work

	// Work the bounded backlog rejects is dropped tail-first from the
	// frame queue too, so FrameQueue.WorkBacklog tracks Backlog.Level
	// exactly and sojourns never count work that was never admitted.
	dropped := k.backlog.TotalDropped()
	s.Served = k.backlog.Step(work, capacity)
	s.Dropped, s.DroppedFrames = k.backlog.TotalDropped()-dropped, 0
	if s.Dropped > 0 {
		s.DroppedFrames, _ = k.frames.DropTail(s.Dropped)
	}
	s.Completed = k.frames.Serve(s.Served, t)
}

// Level returns the current backlog Q(t).
func (k *Kernel) Level() float64 { return k.backlog.Level() }

// TotalDropped returns the cumulative work the bounded backlog rejected.
func (k *Kernel) TotalDropped() float64 { return k.backlog.TotalDropped() }

// QueuedFrames returns the frames still queued, a partially served head
// included.
func (k *Kernel) QueuedFrames() int { return k.frames.Len() }

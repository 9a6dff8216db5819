// Package netem emulates the network path of an edge-offloaded AR
// pipeline: a FIFO uplink with finite bandwidth, propagation latency,
// jitter, and random loss. The offload experiments use it to turn the
// octree stream-size profile bytes(d) into per-frame delivery delays,
// extending the paper's on-device delay model to the network-bound
// regime its introduction motivates ("network-based applications").
package netem

import (
	"errors"
	"fmt"

	"qarv/internal/geom"
)

// LinkConfig parameterizes a Link.
type LinkConfig struct {
	// BytesPerSlot is the serialization bandwidth per time slot.
	BytesPerSlot float64
	// LatencySlots is the fixed propagation delay added to every
	// delivery.
	LatencySlots float64
	// JitterSlots is the stddev of truncated-Gaussian extra delay.
	JitterSlots float64
	// LossProb drops a transmission with this probability in [0,1).
	LossProb float64
	// Seed drives jitter and loss; same seed ⇒ same trace.
	Seed uint64
}

// Link construction errors.
var (
	ErrBadBandwidth = errors.New("netem: bandwidth must be positive")
	ErrBadLoss      = errors.New("netem: loss probability must be in [0,1)")
	ErrBadLatency   = errors.New("netem: latency and jitter must be non-negative")
)

// Link is a FIFO store-and-forward uplink. Transmissions serialize: a
// frame's bytes start transmitting when the link frees, so queueing delay
// emerges naturally from the busy period.
type Link struct {
	cfg       LinkConfig
	rng       *geom.RNG
	busyUntil float64

	// pending tracks serialization schedules of transmissions that may
	// still be (partially) unserialized, for exact BacklogBytes
	// accounting under time-varying bandwidth. head indexes the first
	// live entry (compaction, as in queueing.FrameQueue).
	pending []pendingTx
	head    int
}

// pendingTx is one transmission's frozen serialization schedule: bytes
// serialize uniformly over [start, finish]. The schedule is fixed at
// Transmit time and never revised — that is the ApplyRate never-revise
// contract.
type pendingTx struct {
	start, finish float64
	bytes         float64
}

// NewLink validates cfg and returns a link.
func NewLink(cfg LinkConfig) (*Link, error) {
	if cfg.BytesPerSlot <= 0 {
		return nil, fmt.Errorf("%w: %v", ErrBadBandwidth, cfg.BytesPerSlot)
	}
	if cfg.LossProb < 0 || cfg.LossProb >= 1 {
		return nil, fmt.Errorf("%w: %v", ErrBadLoss, cfg.LossProb)
	}
	if cfg.LatencySlots < 0 || cfg.JitterSlots < 0 {
		return nil, fmt.Errorf("%w: latency=%v jitter=%v", ErrBadLatency, cfg.LatencySlots, cfg.JitterSlots)
	}
	return &Link{cfg: cfg, rng: geom.NewRNG(cfg.Seed ^ 0x6e65746d)}, nil
}

// Reseed replaces the RNG driving jitter and loss — the standard
// per-run reseeding hook, so a reused Link can be re-derived from a
// run seed instead of continuing its construction-seeded stream.
func (l *Link) Reseed(rng *geom.RNG) { l.rng = rng }

// Clone returns a run-isolated copy: counters, the busy horizon, the
// pending-transmission schedule, and the RNG state are all deep-copied,
// so a cloned run never advances (or races) the original's stream.
func (l *Link) Clone() *Link {
	if l == nil {
		return nil
	}
	c := *l
	c.rng = l.rng.Clone()
	c.pending = append([]pendingTx(nil), l.pending...)
	return &c
}

// Transmission is the outcome of one Transmit call.
type Transmission struct {
	// Dropped is true when the link lost the frame (no delivery).
	Dropped bool
	// StartSlot is when transmission began (after queueing).
	StartSlot float64
	// DeliveredSlot is when the last byte arrived (transmission +
	// propagation + jitter). Meaningless if Dropped.
	DeliveredSlot float64
	// QueueingDelay is the time spent waiting for the link.
	QueueingDelay float64
}

// Transmit enqueues a frame of the given size at slot now and returns its
// delivery outcome. Bytes ≤ 0 deliver immediately after latency.
func (l *Link) Transmit(bytes float64, now int) Transmission {
	if bytes < 0 {
		bytes = 0
	}
	start := float64(now)
	if l.busyUntil > start {
		start = l.busyUntil
	}
	txTime := bytes / l.cfg.BytesPerSlot
	l.busyUntil = start + txTime
	if bytes > 0 {
		// Lost frames still occupy the busy period, so they are pending
		// too: their bytes sit on the uplink even though they never
		// deliver.
		l.prunePending(float64(now))
		l.pending = append(l.pending, pendingTx{start: start, finish: l.busyUntil, bytes: bytes})
	}
	out := Transmission{
		StartSlot:     start,
		QueueingDelay: start - float64(now),
	}
	if l.cfg.LossProb > 0 && l.rng.Float64() < l.cfg.LossProb {
		out.Dropped = true
		return out
	}
	jitter := 0.0
	if l.cfg.JitterSlots > 0 {
		jitter = l.rng.NormMeanStd(0, l.cfg.JitterSlots)
		if jitter < 0 {
			jitter = 0
		}
	}
	out.DeliveredSlot = l.busyUntil + l.cfg.LatencySlots + jitter
	return out
}

// Deliver models the propagation leg alone — loss, fixed latency, and
// jitter — for transports whose serialization bandwidth is scheduled
// externally (the shared-uplink multi-device scenario allocates the
// serializer per slot, so only this leg remains). now is when the
// frame's last byte finished serializing. Lost frames still consumed
// their uplink bytes; they simply never arrive. Deliver draws from the
// same RNG as Transmit.
func (l *Link) Deliver(bytes, now float64) (deliveredSlot float64, dropped bool) {
	if bytes < 0 {
		bytes = 0
	}
	if l.cfg.LossProb > 0 && l.rng.Float64() < l.cfg.LossProb {
		return 0, true
	}
	jitter := 0.0
	if l.cfg.JitterSlots > 0 {
		jitter = l.rng.NormMeanStd(0, l.cfg.JitterSlots)
		if jitter < 0 {
			jitter = 0
		}
	}
	return now + l.cfg.LatencySlots + jitter, false
}

// ApplyRate retunes the link for slot t to a time-varying capacity's
// rate; call it once per slot, before observing or transmitting in the
// slot. A positive rate becomes the serialization bandwidth for
// transmissions enqueued from t on. Transmissions already enqueued keep
// their schedule — the never-revise contract: their Transmission
// outcomes were returned at enqueue time, and BacklogBytes values their
// bytes against the rate they were scheduled at. A non-positive rate is
// an outage: the link keeps its last positive rate for when capacity
// returns, and one slot of dead time is added to the busy horizon even
// when a standing queue already extends past it (Stall), so every
// outage slot costs future enqueues exactly one slot.
func (l *Link) ApplyRate(t int, rate float64) {
	if rate > 0 {
		l.cfg.BytesPerSlot = rate
		return
	}
	l.Stall(float64(t), 1)
}

// Stall inserts dead time into the serialization schedule: nothing new
// serializes for the given number of slots starting at from (or at the
// end of the current busy period, whichever is later), so the horizon
// future enqueues queue behind grows by exactly slots — outages
// accumulate even under a standing backlog. The one modeling concession
// is the never-revise contract: transmissions whose Transmission was
// already returned keep their frozen schedules, so previously queued
// bytes still "drain" on paper during the stall while everything
// enqueued afterwards pays for it. This is the primitive ApplyRate uses
// to realize zero-bandwidth (outage) slots.
func (l *Link) Stall(from, slots float64) {
	if slots <= 0 {
		return
	}
	start := l.busyUntil
	if start < from {
		start = from
	}
	l.busyUntil = start + slots
}

// prunePending drops schedules fully serialized by slot now, compacting
// the backing array once the dead prefix dominates.
func (l *Link) prunePending(now float64) {
	for l.head < len(l.pending) && l.pending[l.head].finish <= now {
		l.pending[l.head] = pendingTx{}
		l.head++
	}
	if l.head == len(l.pending) {
		l.pending = l.pending[:0]
		l.head = 0
	} else if l.head > 64 && l.head*2 > len(l.pending) {
		n := copy(l.pending, l.pending[l.head:])
		l.pending = l.pending[:n]
		l.head = 0
	}
}

// BacklogBytes returns the bytes enqueued on the link but not yet
// serialized at slot now: queued frames count in full, the in-flight
// frame by the unserialized remainder of its frozen schedule. It stays
// exact when ApplyRate changes the rate while frames are queued: per the
// never-revise contract, each frame's bytes are valued against the rate
// its schedule was built with, never retroactively at the current rate.
func (l *Link) BacklogBytes(now float64) float64 {
	l.prunePending(now)
	var sum float64
	for _, p := range l.pending[l.head:] {
		switch {
		case now <= p.start:
			sum += p.bytes
		case now < p.finish:
			sum += p.bytes * (p.finish - now) / (p.finish - p.start)
		}
	}
	return sum
}

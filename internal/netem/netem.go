// Package netem emulates the network path of an edge-offloaded AR
// pipeline. Link is the uplink's propagation leg — fixed latency,
// jitter, and random loss — applied to each frame once its last byte
// has serialized; the serialization itself (finite, possibly
// time-varying bandwidth) is the slot kernel's, which serves the
// uplink's per-slot capacity to the frames queued on it. The dynamics
// processes shape that capacity. The offload experiments use both to
// turn the octree stream-size profile bytes(d) into per-frame delivery
// delays, extending the paper's on-device delay model to the
// network-bound regime its introduction motivates ("network-based
// applications").
package netem

import (
	"errors"
	"fmt"

	"qarv/internal/geom"
)

// LinkConfig parameterizes a Link.
type LinkConfig struct {
	// BytesPerSlot is the serialization bandwidth per time slot: the
	// capacity the uplink runs serve each slot (Link itself only
	// validates it).
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

// Link is an uplink's propagation leg: every frame handed to Deliver is
// lost with probability LossProb or arrives LatencySlots plus
// non-negative jitter after its last byte serialized. A run builds its
// own Link from the run's LinkConfig, so there is nothing to reseed.
//
//qarv:allow reseed run-scoped: NewLink builds one per run, never shared
type Link struct {
	cfg LinkConfig
	rng *geom.RNG
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

// Deliver models the propagation leg — loss, fixed latency, and
// jitter — of a frame whose last byte finished serializing at now. Lost
// frames still consumed their uplink bytes; they simply never arrive.
// Each call draws loss, then jitter, from the link's RNG, so a fixed
// call order replays the same deliveries per seed.
func (l *Link) Deliver(now float64) (deliveredSlot float64, dropped bool) {
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

package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"

	"qarv/internal/core"
	"qarv/internal/delay"
	"qarv/internal/geom"
	"qarv/internal/netem"
	"qarv/internal/obs"
	"qarv/internal/octree"
	"qarv/internal/quality"
	"qarv/internal/queueing"
	"qarv/internal/sim"
	"qarv/internal/stats"
	"qarv/internal/synthetic"
)

// Edge offload (extension): the paper's on-device delay model, moved onto
// the network. Instead of rendering locally, the device ships the octree
// stream of each frame (geometry + colors, bytes(d)) over a finite uplink
// to an edge renderer. The controller's workload a(d) becomes the encoded
// stream size and the "service rate" the uplink bandwidth — the same
// drift-plus-penalty machinery stabilizes the transmit queue.

// OffloadParams controls the offload scenario.
type OffloadParams struct {
	// Capture parameters (defaults as in ScenarioParams).
	Character    string
	Samples      int
	CaptureDepth int
	Depths       []int
	Seed         uint64
	// BandwidthFraction places the uplink bandwidth between
	// bytes(d_max−1) and bytes(d_max), default 0.6 (deepest unstable).
	BandwidthFraction float64
	// Bandwidth, when positive, fixes the uplink bandwidth in bytes/slot
	// directly, overriding BandwidthFraction's profile-relative sizing.
	Bandwidth float64
	// LatencySlots, JitterSlots, LossProb shape the link (defaults 2,
	// 0.3, 0.01; zero values take the defaults — use Link to express
	// literal zeros).
	LatencySlots float64
	JitterSlots  float64
	LossProb     float64
	// Link, when non-nil, configures the uplink exactly: its latency,
	// jitter, and loss are used verbatim (zeros included), its
	// BytesPerSlot (when positive) fixes the bandwidth like Bandwidth
	// does, and its Seed (when nonzero) replaces Seed for the link RNG.
	Link *netem.LinkConfig
	// KneeSlot and Slots as in ScenarioParams (defaults 400, 800).
	KneeSlot float64
	Slots    int
	// BandwidthDrop, when set (DropFactor > 0), scales the bandwidth by
	// DropFactor during [DropStart, DropEnd) — the handover/congestion
	// failure injection. Validate rejects windows that would silently be
	// a no-op or never restore the bandwidth: DropFactor must be in
	// (0,1), DropStart non-negative, and DropStart < DropEnd < Slots.
	DropStart, DropEnd int
	DropFactor         float64
	// Dynamics, when non-nil, makes the uplink time-varying: its
	// BandwidthProcess retunes the link at the top of every slot
	// (Markov-modulated capacity, trace replay, mobility handoffs with
	// outage gaps). The static sizing above still fixes the reference
	// bandwidth V is calibrated against; the process then modulates the
	// live link. The controller observes the transmit queue through the
	// link's exact byte accounting (netem.Link.BacklogBytes), since the
	// delay×rate estimate is wrong the moment the rate moves. Dynamics
	// RNGs are reseeded from Seed (or Dynamics.Seed when nonzero) at the
	// start of every run, so reports stay byte-identical per seed.
	// Mutually exclusive with BandwidthDrop — express a one-off drop as
	// a three-point netem.TraceBandwidth instead.
	Dynamics *netem.LinkDynamics
	// Observer, when non-nil, receives every slot's event as the control
	// loop runs, after the run's own telemetry. Offload semantics differ
	// from sim runs: each slot offers one frame (Frames is 1), Arrived is
	// the frame's bytes offered to the uplink (reported even when
	// link-layer loss drops the frame, since its bytes occupied the uplink
	// busy period — Dropped carries the lost bytes and DroppedFrames is
	// 1), Latency is the delivered frame's latency, Completed stays
	// empty, and Served is always 0 —
	// the link drains continuously rather than per-slot, so service is
	// observable only through Backlog, and the sim invariant
	// Q(t+1) = Q(t) + Arrived − Served does not hold.
	Observer sim.Observer
	// Metrics, when non-nil, accumulates the offload_* series (frames
	// offered/lost, backlog-bytes and latency distributions).
	Metrics *obs.Registry
	// Recorder, when non-nil, receives slot-timestamped records: per-
	// slot spans, depth changes, frame losses, and — via the cloned
	// LinkDynamics — netem rate changes and outages.
	Recorder *obs.FlightRecorder
}

func (p OffloadParams) withDefaults() OffloadParams {
	if p.Character == "" {
		p.Character = "longdress"
	}
	if p.Samples <= 0 {
		p.Samples = 400_000
	}
	if p.CaptureDepth <= 0 {
		p.CaptureDepth = 10
	}
	if len(p.Depths) == 0 {
		p.Depths = []int{5, 6, 7, 8, 9, 10}
	}
	if p.BandwidthFraction <= 0 || p.BandwidthFraction >= 1 {
		p.BandwidthFraction = 0.6
	}
	if p.LatencySlots == 0 {
		p.LatencySlots = 2
	}
	if p.JitterSlots == 0 {
		p.JitterSlots = 0.3
	}
	if p.LossProb == 0 {
		p.LossProb = 0.01
	}
	if p.KneeSlot <= 0 {
		p.KneeSlot = 400
	}
	if p.Slots <= 0 {
		p.Slots = 800
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// ErrBadDropWindow reports an invalid bandwidth-drop failure injection.
var ErrBadDropWindow = errors.New("experiments: invalid bandwidth-drop window")

// ErrDropWithDynamics reports BandwidthDrop combined with Dynamics: the
// per-slot dynamics would silently overwrite the drop's SetBandwidth
// calls, so the combination is rejected instead of misbehaving.
var ErrDropWithDynamics = errors.New("experiments: BandwidthDrop and Dynamics are mutually exclusive (use a netem.TraceBandwidth for a one-off drop)")

// Validate checks the parameters (after default resolution) without
// building the capture: the character preset must exist, every candidate
// depth must fit inside the capture lattice, and an enabled bandwidth
// drop must describe a real, fully-contained window. The Session API
// calls this once at construction; OffloadContext calls it again so
// direct callers get the same rejection instead of a silent no-op.
func (p OffloadParams) Validate() error {
	d := p.withDefaults()
	if _, err := synthetic.ByName(d.Character); err != nil {
		return err
	}
	for _, dep := range d.Depths {
		if dep > d.CaptureDepth {
			return fmt.Errorf("%w: %d > %d", ErrDepthBeyondCapture, dep, d.CaptureDepth)
		}
	}
	if d.DropFactor != 0 {
		switch {
		case d.DropFactor < 0 || d.DropFactor >= 1:
			return fmt.Errorf("%w: DropFactor %v not in (0,1)", ErrBadDropWindow, d.DropFactor)
		case d.DropStart < 0:
			return fmt.Errorf("%w: DropStart %d negative", ErrBadDropWindow, d.DropStart)
		case d.DropEnd <= d.DropStart:
			return fmt.Errorf("%w: DropEnd %d not after DropStart %d (the drop would never engage)",
				ErrBadDropWindow, d.DropEnd, d.DropStart)
		case d.DropEnd >= d.Slots:
			return fmt.Errorf("%w: DropEnd %d beyond horizon %d (the bandwidth would never be restored)",
				ErrBadDropWindow, d.DropEnd, d.Slots)
		}
	}
	if p.Link != nil {
		// Shape parameters can be checked before the bandwidth is known:
		// stand in a positive bandwidth so netem validates the rest.
		lc := *p.Link
		if lc.BytesPerSlot <= 0 {
			lc.BytesPerSlot = 1
		}
		if _, err := netem.NewLink(lc); err != nil {
			return err
		}
	}
	if p.Dynamics != nil {
		if d.DropFactor != 0 {
			return ErrDropWithDynamics
		}
		if err := p.Dynamics.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// OffloadResult is the trajectory and delivery statistics of one offload
// run.
type OffloadResult struct {
	Params    OffloadParams
	Bandwidth float64 // bytes/slot
	V         float64
	// Network names the uplink's bandwidth dynamics ("static" for a
	// fixed-parameter link).
	Network string
	Bytes   []int // stream bytes per depth (the cost profile)

	BacklogBytes []float64 // uplink queue in bytes, per slot
	Depth        []int     // chosen depth per slot
	Latency      []float64 // end-to-end delivery latency per delivered frame

	MeanLatency float64
	P95Latency  float64
	LossCount   int
	MeanDepth   float64
	Verdict     queueing.Verdict
}

// ErrNoDeliveries is returned when every frame was lost (degenerate link).
var ErrNoDeliveries = errors.New("experiments: no frames delivered")

// captureByteProfiles builds the synthetic capture shared by the
// offload scenarios and measures what their controllers act on: the
// per-depth stream-size profile (bytes, the cost domain) and the
// log-point utility over the octree occupancy.
func captureByteProfiles(character string, samples, captureDepth int, depths []int, seed uint64) ([]int, quality.UtilityModel, error) {
	ch, err := synthetic.ByName(character)
	if err != nil {
		return nil, nil, err
	}
	for _, dep := range depths {
		if dep > captureDepth {
			return nil, nil, fmt.Errorf("%w: %d > %d", ErrDepthBeyondCapture, dep, captureDepth)
		}
	}
	cloud, err := synthetic.Generate(synthetic.Config{
		Character:     ch,
		SamplesTarget: samples,
		CaptureDepth:  captureDepth,
		Seed:          seed,
	}, synthetic.Pose{})
	if err != nil {
		return nil, nil, fmt.Errorf("generate frame: %w", err)
	}
	tree, err := octree.Build(cloud, captureDepth)
	if err != nil {
		return nil, nil, fmt.Errorf("build octree: %w", err)
	}
	bytesProfile, err := tree.StreamSizeProfile(true)
	if err != nil {
		return nil, nil, fmt.Errorf("stream sizes: %w", err)
	}
	// Quality still comes from rendered points; cost is bytes.
	util, err := quality.NewLogPointUtility(tree.Profile())
	if err != nil {
		return nil, nil, err
	}
	return bytesProfile, util, nil
}

// referenceBandwidth places an uplink bandwidth between bytes(d_max−1)
// and bytes(d_max) of the given cost model — the sizing that keeps the
// deepest depth unstable, as the scenario calibration requires.
func referenceBandwidth(cost *delay.PointCostModel, depths []int, fraction float64) float64 {
	dMax, second := deepestTwo(depths)
	bMax := cost.FrameCost(dMax)
	bSecond := cost.FrameCost(second)
	return bSecond + fraction*(bMax-bSecond)
}

// Offload builds the capture, measures its per-depth stream sizes, sizes
// the uplink, calibrates V against the byte workload, and runs the
// control loop against the emulated link.
func Offload(params OffloadParams) (*OffloadResult, error) {
	return OffloadContext(context.Background(), params)
}

// OffloadContext is Offload under a cancelable context: the slot loop
// polls ctx once per queueing.PollEvery slots and aborts with the
// context's error.
func OffloadContext(ctx context.Context, params OffloadParams) (*OffloadResult, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	p := params.withDefaults()
	bytesProfile, util, err := captureByteProfiles(p.Character, p.Samples, p.CaptureDepth, p.Depths, p.Seed)
	if err != nil {
		return nil, err
	}
	cost, err := delay.NewPointCostModel(bytesProfile, 1, 0, 0)
	if err != nil {
		return nil, fmt.Errorf("bytes cost model: %w", err)
	}

	bandwidth := referenceBandwidth(cost, p.Depths, p.BandwidthFraction)
	if p.Bandwidth > 0 {
		bandwidth = p.Bandwidth
	}
	if p.Link != nil && p.Link.BytesPerSlot > 0 {
		bandwidth = p.Link.BytesPerSlot
	}

	cfg := core.Config{Depths: p.Depths, Utility: util, Cost: cost}
	v, err := core.CalibrateV(p.KneeSlot, bandwidth, cfg)
	if err != nil {
		return nil, fmt.Errorf("calibrate V: %w", err)
	}
	cfg.V = v
	ctrl, err := core.New(cfg)
	if err != nil {
		return nil, err
	}

	linkCfg := netem.LinkConfig{
		BytesPerSlot: bandwidth,
		LatencySlots: p.LatencySlots,
		JitterSlots:  p.JitterSlots,
		LossProb:     p.LossProb,
		Seed:         p.Seed,
	}
	if p.Link != nil {
		// Explicit link config: shape fields are taken verbatim, zeros
		// included, so lossless/zero-latency uplinks are expressible.
		linkCfg = *p.Link
		linkCfg.BytesPerSlot = bandwidth
		if linkCfg.Seed == 0 {
			linkCfg.Seed = p.Seed
		}
	}
	link, err := netem.NewLink(linkCfg)
	if err != nil {
		return nil, err
	}
	if p.Dynamics != nil {
		// Fresh dynamics per run, like the link RNG above: the run
		// works on a deep copy (the caller's structs are never mutated,
		// so one Session can Run concurrently) reseeded from the
		// capture seed (or the dynamics' own Seed), replaying the exact
		// same capacity trajectory every run — byte-identical reports.
		seed := p.Dynamics.Seed
		if seed == 0 {
			seed = p.Seed
		}
		p.Dynamics = p.Dynamics.Clone()
		p.Dynamics.Recorder = p.Recorder
		p.Dynamics.Reseed(geom.NewRNG(seed ^ 0x64796e61)) // "dyna"
	}

	res := &OffloadResult{
		Params:       p,
		Bandwidth:    bandwidth,
		V:            v,
		Network:      p.Dynamics.Name(),
		Bytes:        bytesProfile,
		BacklogBytes: make([]float64, p.Slots),
		Depth:        make([]int, p.Slots),
	}
	var depthSum float64
	// Telemetry is the first observer, so its records land before
	// anything the caller's observer does with the same slot.
	observe := sim.Join(newOffloadTelemetry(p.Metrics, p.Recorder), p.Observer)
	cancel := queueing.NewCancelCheck(ctx, 0)
	for t := 0; t < p.Slots; t++ {
		if err := cancel.Check(); err != nil {
			return nil, fmt.Errorf("experiments: offload canceled at slot %d: %w", t, err)
		}
		if p.DropFactor > 0 && t == p.DropStart {
			if err := link.SetBandwidth(bandwidth * p.DropFactor); err != nil {
				return nil, err
			}
		}
		if p.DropFactor > 0 && t == p.DropEnd {
			if err := link.SetBandwidth(bandwidth); err != nil {
				return nil, err
			}
		}
		// The controller observes the uplink backlog in bytes (the fluid
		// queue the busy period implies). Static links keep the
		// delay×rate estimate (bit-identical to the historical runs);
		// dynamic links use the exact byte accounting, since the
		// estimate revalues queued bytes at whatever the rate just
		// became.
		var q float64
		if p.Dynamics != nil {
			p.Dynamics.Apply(link, t)
			q = link.BacklogBytes(float64(t))
		} else {
			q = link.QueueDelay(t) * link.Bandwidth()
		}
		res.BacklogBytes[t] = q
		d := ctrl.Decide(t, q)
		res.Depth[t] = d
		depthSum += float64(d)
		frameBytes := cost.FrameCost(d)
		tx := link.Transmit(frameBytes, t)
		var lostBytes, latency float64
		var lost int
		if tx.Dropped {
			res.LossCount++
			lostBytes, lost = frameBytes, 1
		} else {
			latency = tx.DeliveredSlot - float64(t)
			res.Latency = append(res.Latency, latency)
		}
		if observe != nil {
			// Arrived reports the bytes offered to the uplink even for a
			// lost frame — they occupied the busy period; Dropped carries
			// the loss.
			observe(sim.SlotEvent{
				Slot: t, Device: -1, Backlog: q, Depth: d, Utility: util.Utility(d),
				Frames: 1, Arrived: frameBytes, DroppedFrames: lost, Dropped: lostBytes,
				Latency: latency,
			})
		}
	}
	res.MeanDepth = depthSum / float64(p.Slots)
	if len(res.Latency) == 0 {
		return nil, ErrNoDeliveries
	}
	var lat stats.Running
	for _, l := range res.Latency {
		lat.Add(l)
	}
	res.MeanLatency = lat.Mean()
	p95, err := stats.Percentile(res.Latency, 95)
	if err != nil {
		return nil, err
	}
	res.P95Latency = p95
	verdict, err := queueing.ClassifyTrajectory(res.BacklogBytes, 0)
	if err != nil {
		return nil, err
	}
	res.Verdict = verdict
	return res, nil
}

// deepestTwo returns the deepest and second-deepest entries of depths.
func deepestTwo(depths []int) (dMax, second int) {
	dMax = math.MinInt32
	for _, d := range depths {
		if d > dMax {
			dMax = d
		}
	}
	second = math.MinInt32
	for _, d := range depths {
		if d < dMax && d > second {
			second = d
		}
	}
	if second == math.MinInt32 {
		second = dMax
	}
	return dMax, second
}

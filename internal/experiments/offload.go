package experiments

import (
	"context"
	"errors"
	"fmt"

	"qarv/internal/delay"
	"qarv/internal/geom"
	"qarv/internal/netem"
	"qarv/internal/obs"
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
	// ScenarioParams sets the capture and the calibration, with the
	// defaults of NewScenario. The controller works in the bytes domain:
	// ServiceFraction places the uplink bandwidth between bytes(d_max−1)
	// and bytes(d_max), and V is calibrated against that bandwidth.
	ScenarioParams
	// Link, when non-nil, configures the uplink exactly: its latency,
	// jitter, and loss are used verbatim (zeros included), its
	// BytesPerSlot (when positive) fixes the bandwidth V is calibrated
	// at, and its Seed (when nonzero) replaces Seed for the link RNG.
	// A nil Link is the default uplink: 2 slots of latency, 0.3 slots of
	// jitter, 1% loss, the bandwidth ServiceFraction sizes and the link
	// RNG seeded from Seed.
	Link *netem.LinkConfig
	// Dynamics, when non-nil, makes the uplink time-varying: it is a
	// factor on the calibrated bandwidth, so slot t serializes at
	// Bandwidth × Dynamics.Service(t) — a Markov fading chain, a trace
	// (a one-off drop is the three-point trace {0:1, start:f, end:1}),
	// mobility handoffs with outage gaps; a non-positive rate is an
	// outage slot. V stays calibrated at the static bandwidth. Each run
	// works on a clone reseeded from Seed, so reports stay
	// byte-identical per seed and the caller's process is never
	// advanced.
	Dynamics delay.ServiceProcess
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
	// slot spans, depth changes, frame losses, and the Dynamics' netem
	// rate changes and outages.
	Recorder *obs.FlightRecorder
}

// Validate checks the parameters (after default resolution) without
// building the capture: ServiceFraction must lie in (0,1), every
// candidate depth must fit inside the capture lattice, the character
// preset must exist, and the link shape and the Dynamics process must
// be valid. The Session API calls this once at construction;
// OffloadContext calls it again so direct callers get the same
// rejection instead of a silent no-op.
func (p OffloadParams) Validate() error {
	return validateUplink(p.ScenarioParams.withDefaults(), p.Link, p.Dynamics)
}

// validateUplink holds the checks both uplink runs make before any
// capture: the resolved scenario parameters, the character preset, the
// link's shape, and the dynamics process.
func validateUplink(p ScenarioParams, link *netem.LinkConfig, dynamics delay.ServiceProcess) error {
	if err := p.validate(); err != nil {
		return err
	}
	if _, err := synthetic.ByName(p.Character); err != nil {
		return err
	}
	if link != nil {
		// Shape parameters can be checked before the bandwidth is known:
		// stand in a positive bandwidth so netem validates the rest.
		lc := *link
		if lc.BytesPerSlot <= 0 {
			lc.BytesPerSlot = 1
		}
		if _, err := netem.NewLink(lc); err != nil {
			return err
		}
	}
	if v, ok := dynamics.(interface{ Validate() error }); ok {
		return v.Validate()
	}
	return nil
}

// OffloadResult is the trajectory and delivery statistics of one offload
// run.
type OffloadResult struct {
	// Params are the resolved parameters; Params.Link is the uplink the
	// run used, bandwidth and seed included.
	Params    OffloadParams
	Bandwidth float64 // bytes/slot
	V         float64
	// Network names the uplink's dynamics ("static" for a
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

// defaultLink is the uplink shape of a run whose Link is nil.
var defaultLink = netem.LinkConfig{LatencySlots: 2, JitterSlots: 0.3, LossProb: 0.01}

// resolveLink returns the uplink a run uses: link verbatim when set,
// otherwise the default shape, with the seed falling back to seed. A
// non-positive BytesPerSlot leaves the bandwidth to the run's own
// sizing.
func resolveLink(link *netem.LinkConfig, seed uint64) netem.LinkConfig {
	lc := defaultLink
	if link != nil {
		lc = *link
	}
	if lc.Seed == 0 {
		lc.Seed = seed
	}
	return lc
}

// NewByteScenario calibrates the scenario params describes in the bytes
// domain: cost a(d) is the measured stream size of depth d, and the
// service rate is the uplink bandwidth ServiceFraction sizes — the
// calibration Offload runs at when its Link leaves the bandwidth unset.
func NewByteScenario(params ScenarioParams) (*Scenario, error) {
	p := params.withDefaults()
	if err := p.validate(); err != nil {
		return nil, err
	}
	scn, _, err := byteScenario(p, 0)
	return scn, err
}

// byteScenario captures the frame p describes and calibrates it in the
// bytes domain the uplink runs work in: cost a(d) is the stream size of
// depth d (geometry and colors), utility the log-point utility over the
// octree occupancy. bandwidth, when positive, is the service rate V is
// calibrated at; otherwise ServiceFraction sizes it. The stream-size
// ladder is returned alongside, since the Scenario's Profile holds
// occupancy.
func byteScenario(p ScenarioParams, bandwidth float64) (*Scenario, []int, error) {
	_, tree, err := Capture(p)
	if err != nil {
		return nil, nil, err
	}
	bytesProfile, err := tree.StreamSizeProfile(true)
	if err != nil {
		return nil, nil, fmt.Errorf("stream sizes: %w", err)
	}
	// Quality still comes from rendered points; cost is bytes.
	profile := tree.Profile()
	util, err := quality.NewLogPointUtility(profile)
	if err != nil {
		return nil, nil, err
	}
	cost, err := delay.NewPointCostModel(bytesProfile, 1, 0, 0)
	if err != nil {
		return nil, nil, fmt.Errorf("bytes cost model: %w", err)
	}
	if bandwidth <= 0 {
		bandwidth = p.serviceRate(cost)
	}
	scn, err := calibrate(p, profile, util, cost, bandwidth)
	if err != nil {
		return nil, nil, err
	}
	return scn, bytesProfile, nil
}

// latencySummary returns the mean and 95th percentile of the delivered
// frames' latencies, or ErrNoDeliveries when none was delivered.
func latencySummary(latencies []float64) (mean, p95 float64, err error) {
	if len(latencies) == 0 {
		return 0, 0, ErrNoDeliveries
	}
	var lat stats.Running
	for _, l := range latencies {
		lat.Add(l)
	}
	p95, err = stats.Percentile(latencies, 95)
	if err != nil {
		return 0, 0, err
	}
	return lat.Mean(), p95, nil
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
	p := params
	p.ScenarioParams = p.ScenarioParams.withDefaults()
	lc := resolveLink(p.Link, p.Seed)
	scn, bytesProfile, err := byteScenario(p.ScenarioParams, lc.BytesPerSlot)
	if err != nil {
		return nil, err
	}
	bandwidth := scn.ServiceRate
	lc.BytesPerSlot = bandwidth
	p.Link = &lc
	ctrl, err := scn.Controller()
	if err != nil {
		return nil, err
	}
	cost, util := scn.Cost, scn.Utility
	link, err := netem.NewLink(lc)
	if err != nil {
		return nil, err
	}
	// Fresh dynamics per run, like the link RNG above.
	p.Dynamics = delay.ForRun(p.Dynamics, func() *geom.RNG { return geom.NewRNG(p.Seed ^ 0x64796e61).Split() }) // "dyna"
	network := "static"
	if p.Dynamics != nil {
		network = p.Dynamics.Name()
	}

	res := &OffloadResult{
		Params:       p,
		Bandwidth:    bandwidth,
		V:            scn.V,
		Network:      network,
		Bytes:        bytesProfile,
		BacklogBytes: make([]float64, p.Slots),
		Depth:        make([]int, p.Slots),
	}
	var depthSum, lastRate float64
	// Telemetry is the first observer, so its records land before
	// anything the caller's observer does with the same slot.
	observe := sim.Join(newOffloadTelemetry(p.Metrics, p.Recorder), p.Observer)
	cancel := queueing.NewCancelCheck(ctx, 0)
	for t := 0; t < p.Slots; t++ {
		if err := cancel.Check(); err != nil {
			return nil, fmt.Errorf("experiments: offload canceled at slot %d: %w", t, err)
		}
		if p.Dynamics != nil {
			rate := bandwidth * p.Dynamics.Service(t)
			if p.Recorder != nil && (t == 0 || rate != lastRate) {
				name := "rate"
				if rate <= 0 {
					name = "outage"
				}
				p.Recorder.Event(int64(t), "netem", name, -1, rate)
			}
			lastRate = rate
			link.ApplyRate(t, rate)
		}
		// The controller observes the uplink backlog in bytes: the link's
		// exact count of enqueued, not yet serialized bytes.
		q := link.BacklogBytes(float64(t))
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
	if res.MeanLatency, res.P95Latency, err = latencySummary(res.Latency); err != nil {
		return nil, err
	}
	verdict, err := queueing.ClassifyTrajectory(res.BacklogBytes, 0)
	if err != nil {
		return nil, err
	}
	res.Verdict = verdict
	return res, nil
}

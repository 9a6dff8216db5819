package experiments

import (
	"context"
	"errors"
	"fmt"

	"qarv/internal/delay"
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
	// factor on the calibrated bandwidth, so slot t serves
	// Bandwidth × Dynamics.Service(t) bytes of the queued frames — a
	// Markov fading chain, a trace (a one-off drop is the three-point
	// trace {0:1, start:f, end:1}), mobility handoffs with outage gaps;
	// a non-positive rate is an outage slot. V stays calibrated at the
	// static bandwidth. Each run works on a clone reseeded from Seed, as
	// SharedUplinkParams.Dynamics does, so reports stay byte-identical
	// per seed and the caller's process is never advanced.
	Dynamics delay.ServiceProcess
	// Observer, when non-nil, receives every slot's event as the control
	// loop runs, after the run's own telemetry. The events are the slot
	// kernel's, in bytes, for the one device 0: Arrived is the frame's
	// bytes, Served the bytes the uplink serialized that slot, and
	// Completed the frames whose last byte left, so
	// Q(t+1) = Q(t) + Arrived − Served holds. Link loss, latency and
	// jitter apply after the run, when the completed frames cross the
	// propagation leg; they show in the result and in Metrics and
	// Recorder, not in the events.
	Observer sim.Observer
	// Metrics, when non-nil, accumulates the kernel's sim_* and alloc_*
	// series and the propagation leg's offload_frames_lost_total and
	// offload_latency_slots.
	Metrics *obs.Registry
	// Recorder, when non-nil, receives slot-timestamped records: the
	// kernel's per-slot spans and depth changes, the allocator's
	// per-slot share of the uplink (its capacity, at one device), and
	// an offload "loss" event, at its completion slot, for every frame
	// the link drops.
	Recorder *obs.FlightRecorder
}

// Validate checks the parameters (after default resolution) without
// building the capture: ServiceFraction must lie in (0,1), every
// candidate depth must fit inside the capture lattice, the character
// preset must exist, and the link shape and the Dynamics process must
// be valid. The Session API calls this once at construction; the run
// checks the same again, so direct callers get the same rejection.
func (p OffloadParams) Validate() error {
	return validateUplink(p.ScenarioParams.withDefaults(), p.Link, p.Dynamics)
}

// validateUplink holds the checks the uplink engine (runUplink) makes
// before any capture: the resolved scenario parameters, the character
// preset, the link's shape, and the dynamics process.
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
// calibration OffloadContext runs at when its Link leaves the bandwidth unset.
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

// OffloadContext builds the capture, measures its per-depth stream
// sizes, sizes the uplink, calibrates V against the byte workload, and
// runs the control loop against the emulated link under a cancelable
// context. The run is SharedUplinkContext's at one unit device: the
// kernel serves each slot's uplink capacity to the frames queued on it,
// and every completed frame then crosses the link's propagation leg.
func OffloadContext(ctx context.Context, params OffloadParams) (*OffloadResult, error) {
	up, scn, latencies, err := runUplink(ctx, SharedUplinkParams{
		ScenarioParams: params.ScenarioParams,
		Specs:          []AllocDeviceSpec{{ArrivalsPerSlot: 1, CostScale: 1}},
		Link:           params.Link,
		Dynamics:       params.Dynamics,
		Observer:       params.Observer,
	}, params.Metrics, params.Recorder)
	if err != nil {
		return nil, err
	}
	dev := up.Multi.PerDevice[0]
	verdict, err := dev.Verdict()
	if err != nil {
		return nil, err
	}
	p := params
	p.ScenarioParams, p.Link = up.Params.ScenarioParams, up.Params.Link
	network := "static"
	if p.Dynamics != nil {
		network = p.Dynamics.Name()
	}
	var depthSum float64
	for _, d := range dev.Depth {
		depthSum += float64(d)
	}
	return &OffloadResult{
		Params:       p,
		Bandwidth:    up.Bandwidth,
		V:            scn.V,
		Network:      network,
		Bytes:        up.Bytes,
		BacklogBytes: dev.Backlog,
		Depth:        dev.Depth,
		Latency:      latencies,
		MeanLatency:  up.MeanLatency,
		P95Latency:   up.P95Latency,
		LossCount:    up.LossCount,
		MeanDepth:    depthSum / float64(len(dev.Depth)),
		Verdict:      verdict,
	}, nil
}

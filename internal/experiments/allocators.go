package experiments

import (
	"context"
	"fmt"
	"sort"

	"qarv/internal/alloc"
	"qarv/internal/core"
	"qarv/internal/delay"
	"qarv/internal/geom"
	"qarv/internal/netem"
	"qarv/internal/obs"
	"qarv/internal/queueing"
	"qarv/internal/sim"
	"qarv/internal/stats"
)

// ---------------------------------------------------------------------------
// ABL-ALLOC — does the shared-edge allocation policy matter?
// ---------------------------------------------------------------------------

// AllocDeviceSpec shapes one device of a heterogeneous fleet: how many
// frames it pushes per slot and how its per-depth cost scales relative
// to the scenario's calibrated model (capture resolution differences).
type AllocDeviceSpec struct {
	ArrivalsPerSlot int
	CostScale       float64
}

// HeterogeneousSpecs returns the canonical mixed fleet of the allocator
// ablation: device 0 is heavy (3 frames/slot at 2× cost), the remaining
// n−1 devices are light (1 frame/slot at 0.5× cost). Under an equal
// split the heavy device's minimum demand exceeds budget/n, so only
// backlog-aware allocation can stabilize it.
func HeterogeneousSpecs(n int) []AllocDeviceSpec {
	if n <= 0 {
		n = 8
	}
	specs := make([]AllocDeviceSpec, n)
	specs[0] = AllocDeviceSpec{ArrivalsPerSlot: 3, CostScale: 2}
	for i := 1; i < n; i++ {
		specs[i] = AllocDeviceSpec{ArrivalsPerSlot: 1, CostScale: 0.5}
	}
	return specs
}

// FleetMinDemand returns the fleet's aggregate per-slot work demand with
// every device pinned at the shallowest candidate depth — the floor any
// stabilizing budget must exceed. Specs take the same defaults as the
// devices they build (one frame per slot, cost scale 1).
func FleetMinDemand(s *Scenario, specs []AllocDeviceSpec) float64 {
	dMin := s.Params.Depths[0]
	for _, d := range s.Params.Depths {
		if d < dMin {
			dMin = d
		}
	}
	aMin := s.Cost.FrameCost(dMin)
	var demand float64
	for _, spec := range specs {
		demand += float64(spec.perSlot()) * spec.scale() * aMin
	}
	return demand
}

// scale returns the spec's cost scale, defaulting to 1.
func (spec AllocDeviceSpec) scale() float64 {
	if spec.CostScale <= 0 {
		return 1
	}
	return spec.CostScale
}

// perSlot returns the spec's frames per slot, defaulting to 1.
func (spec AllocDeviceSpec) perSlot() int {
	if spec.ArrivalsPerSlot <= 0 {
		return 1
	}
	return spec.ArrivalsPerSlot
}

// fleetDevices builds one sim.Device per spec: a fresh drift-plus-penalty
// controller over the scenario's cost model scaled by the spec's
// CostScale, so every device still acts on purely local state and in
// the scenario's own cost domain (points or bytes). Controllers run at
// the scenario's calibrated V or, with perDeviceV, at a V calibrated
// against the device's scaled share of the scenario's service rate.
func fleetDevices(s *Scenario, specs []AllocDeviceSpec, perDeviceV bool) ([]sim.Device, error) {
	devices := make([]sim.Device, len(specs))
	for i, spec := range specs {
		cost, err := s.Cost.Scaled(spec.scale())
		if err != nil {
			return nil, fmt.Errorf("device %d cost: %w", i, err)
		}
		cfg := core.Config{V: s.V, Depths: s.Params.Depths, Utility: s.Utility, Cost: cost}
		if perDeviceV {
			if cfg.V, err = core.CalibrateV(s.Params.KneeSlot, spec.scale()*s.ServiceRate, cfg); err != nil {
				return nil, fmt.Errorf("device %d calibrate V: %w", i, err)
			}
		}
		ctrl, err := core.New(cfg)
		if err != nil {
			return nil, fmt.Errorf("device %d controller: %w", i, err)
		}
		devices[i] = sim.Device{
			Policy:   ctrl,
			Cost:     cost,
			Utility:  s.Utility,
			Arrivals: &queueing.DeterministicArrivals{PerSlot: spec.perSlot()},
		}
	}
	return devices, nil
}

// ---------------------------------------------------------------------------
// Shared-uplink multi-device offload: N devices, one netem.Link
// ---------------------------------------------------------------------------

// SharedUplinkParams controls the shared-uplink offload scenario: N
// devices stream their octree frames through one edge uplink whose
// serialization bandwidth is divided per slot by an allocator; the
// link's propagation leg (latency, jitter, loss) applies to every
// delivered frame. One unit device (Devices: 1) is the single-device
// edge-offload run.
type SharedUplinkParams struct {
	// ScenarioParams sets the capture and the calibration, with the
	// defaults of NewScenario. The controllers work in the bytes domain:
	// ServiceFraction places each unit device's reference bandwidth
	// between bytes(d_max−1) and bytes(d_max), and V is calibrated
	// against it.
	ScenarioParams
	// Devices is the fleet size (default 4; negative is rejected with
	// ErrNegativeParam); Specs, when non-empty, overrides it with an
	// explicit heterogeneous fleet.
	Devices int
	Specs   []AllocDeviceSpec
	// Allocator splits the uplink bandwidth per slot (default
	// alloc.EqualSplit).
	Allocator alloc.Allocator
	// Link, when non-nil, configures the uplink exactly: its latency,
	// jitter, and loss are used verbatim (zeros included), and its Seed
	// (when nonzero) replaces Seed for the link RNG. A nil Link is the
	// default uplink: 2 slots of latency, 0.3 slots of jitter, 1% loss,
	// the bandwidth ServiceFraction sizes and the link RNG seeded from
	// Seed. The fleet's demand is the sum over devices of arrivals ×
	// cost scale. Link.BytesPerSlot, when positive, fixes the total
	// bandwidth, and the reference bandwidth is that total divided by
	// the demand; otherwise ServiceFraction sizes the reference
	// bandwidth and the total is it times the demand. Each device's V
	// is calibrated against its own scaled reference share either way.
	Link *netem.LinkConfig
	// Dynamics, when non-nil, makes the uplink's total capacity
	// time-varying: it is a factor on the calibrated bandwidth, so the
	// allocator splits Bandwidth × Dynamics.Service(t) each slot — a
	// Markov fading chain, a trace (a one-off drop is the three-point
	// trace {0:1, start:f, end:1}), mobility handoffs with outage gaps;
	// a non-positive rate is an outage slot. The static bandwidth still
	// anchors V calibration and the propagation link. Each run works on
	// a copy reseeded from Seed, so repeated runs replay the same
	// capacity path and the caller's process is never advanced.
	Dynamics delay.ServiceProcess
	// Observer receives every device's slot event as the control loop
	// runs, after the run's own telemetry. The events are the slot
	// kernel's, in bytes: Device indexes the fleet, Arrived is the
	// frame's bytes, Served the bytes the uplink serialized that slot,
	// and Completed the frames whose last byte left. Link loss, latency
	// and jitter apply after the run, when the completed frames cross
	// the propagation leg; they show in the result and in Metrics and
	// Recorder, not in the events.
	Observer sim.Observer
	// Metrics, when non-nil, accumulates the kernel's sim_* and alloc_*
	// series and the propagation leg's offload_frames_lost_total and
	// offload_latency_slots.
	Metrics *obs.Registry
	// Recorder, when non-nil, receives slot-timestamped records: the
	// kernel's per-slot spans and depth changes, the allocator's
	// per-slot shares of the uplink, and an offload "loss" event, at its
	// completion slot, for every frame the link drops.
	Recorder *obs.FlightRecorder
}

func (p SharedUplinkParams) withDefaults() SharedUplinkParams {
	p.ScenarioParams = p.ScenarioParams.withDefaults()
	if p.Devices == 0 {
		p.Devices = 4
	}
	if len(p.Specs) == 0 {
		p.Specs = make([]AllocDeviceSpec, p.Devices)
		for i := range p.Specs {
			p.Specs[i] = AllocDeviceSpec{ArrivalsPerSlot: 1, CostScale: 1}
		}
	}
	p.Devices = len(p.Specs)
	if p.Allocator == nil {
		p.Allocator = alloc.EqualSplit{}
	}
	return p
}

// SharedUplinkDeviceRow summarizes one device of the shared-uplink run.
type SharedUplinkDeviceRow struct {
	Device              int
	Verdict             string
	TimeAvgBacklogBytes float64
	MeanSojourn         float64
	Delivered           int
	Lost                int
	MeanLatency         float64
}

// SharedUplinkResult is the outcome of one shared-uplink run.
type SharedUplinkResult struct {
	// Params are the resolved parameters; Params.Link is the uplink the
	// run used, bandwidth and seed included.
	Params    SharedUplinkParams
	Allocator string
	Bandwidth float64 // total uplink bytes/slot
	// V is the calibrated scenario's V, the value a unit device's
	// controller runs at (each device calibrates its own V against its
	// scaled share).
	V     float64
	Bytes []int // stream bytes per depth

	// Multi carries the full per-device byte-domain trajectories and
	// frame accounting.
	Multi     *sim.MultiResult
	PerDevice []SharedUplinkDeviceRow

	// Latency lists every delivered frame's end-to-end latency in
	// slots, in delivery order.
	Latency     []float64
	MeanLatency float64
	P95Latency  float64
	LossCount   int
}

// SharedUplink builds the capture, measures its per-depth stream
// sizes, sizes the uplink, calibrates each device's V against the byte
// workload, and runs the fleet against one emulated uplink under a
// cancelable context. The fleet runs on sim.Kernel, each slot serving
// the share of the uplink's serialization bandwidth the allocator
// grants, so every device's byte backlog follows the Lindley recursion
// Q(t+1) = max(Q(t) + a(t) − b(t), 0). One propagation pass then sends
// every completed frame across the netem.Link (latency, jitter, loss)
// in completion order; lost frames still consumed uplink bytes.
func SharedUplink(ctx context.Context, params SharedUplinkParams) (*SharedUplinkResult, error) {
	if params.Devices < 0 {
		return nil, fmt.Errorf("%w: Devices %d", ErrNegativeParam, params.Devices)
	}
	p := params.withDefaults()
	if err := validateUplink(p.ScenarioParams, p.Link, p.Dynamics); err != nil {
		return nil, err
	}
	// The scenario sits at the reference bandwidth of one unit device:
	// a fixed Link bandwidth divided by the fleet's demand units (the
	// sum over devices of arrivals × cost scale), otherwise the one
	// ServiceFraction sizes. The default total scales it back up, so a
	// homogeneous fleet gets n× the single-device uplink.
	var demandUnits float64
	for _, spec := range p.Specs {
		demandUnits += float64(spec.perSlot()) * spec.scale()
	}
	lc := resolveLink(p.Link, p.Seed)
	scn, bytesProfile, err := byteScenario(p.ScenarioParams, lc.BytesPerSlot/demandUnits)
	if err != nil {
		return nil, err
	}
	if lc.BytesPerSlot <= 0 {
		lc.BytesPerSlot = scn.ServiceRate * demandUnits
	}
	bandwidth := lc.BytesPerSlot
	p.Link = &lc

	// Each device runs its own controller over its scaled byte-cost
	// model, with V calibrated against its own scaled reference share
	// (always below its bytes(d_max), as calibration requires) — purely
	// local control; only the server-side split is coordinated.
	devices, err := fleetDevices(scn, p.Specs, true)
	if err != nil {
		return nil, err
	}

	multi, err := sim.RunMultiContext(ctx, sim.MultiConfig{
		Devices:   devices,
		Service:   SweepNetwork{Factor: p.Dynamics}.New(bandwidth, geom.NewRNG(p.Seed^0x73686172)), // "shar"
		Allocator: p.Allocator,
		Slots:     p.Slots,
		Observer:  p.Observer,
		Metrics:   p.Metrics,
		Recorder:  p.Recorder,
	})
	if err != nil {
		return nil, err
	}

	// Propagation leg: one netem.Link shared by the fleet. Completions
	// cross it in serialization order (completion slot, then device
	// index) so loss and jitter draws are deterministic.
	link, err := netem.NewLink(lc)
	if err != nil {
		return nil, err
	}
	type completion struct {
		device int
		frame  queueing.Completed
	}
	var order []completion
	for i, r := range multi.PerDevice {
		for _, c := range r.Completed {
			order = append(order, completion{device: i, frame: c})
		}
	}
	sort.SliceStable(order, func(a, b int) bool {
		if order[a].frame.CompletedAt != order[b].frame.CompletedAt {
			return order[a].frame.CompletedAt < order[b].frame.CompletedAt
		}
		return order[a].device < order[b].device
	})

	res := &SharedUplinkResult{
		Params:    p,
		Allocator: multi.Allocator,
		Bandwidth: bandwidth,
		V:         scn.V,
		Bytes:     bytesProfile,
		Multi:     multi,
		PerDevice: make([]SharedUplinkDeviceRow, len(devices)),
	}
	lostTotal := p.Metrics.Counter(MetricOffloadLost)
	latencyHist := p.Metrics.Histogram(MetricOffloadLatency)
	perDeviceLat := make([]stats.Running, len(devices))
	for _, c := range order {
		deliveredSlot, lost := link.Deliver(float64(c.frame.CompletedAt))
		if lost {
			res.LossCount++
			res.PerDevice[c.device].Lost++
			lostTotal.Inc()
			p.Recorder.Event(int64(c.frame.CompletedAt), "offload", "loss", int64(c.device), c.frame.Work)
			continue
		}
		lat := deliveredSlot - float64(c.frame.EnqueuedAt)
		latencyHist.Observe(lat)
		perDeviceLat[c.device].Add(lat)
		res.Latency = append(res.Latency, lat)
		res.PerDevice[c.device].Delivered++
	}
	for i, r := range multi.PerDevice {
		verdict, err := r.Verdict()
		if err != nil {
			return nil, err
		}
		row := &res.PerDevice[i]
		row.Device = i
		row.Verdict = verdict.String()
		row.TimeAvgBacklogBytes = r.TimeAvgBacklog
		row.MeanSojourn = r.MeanSojourn
		row.MeanLatency = perDeviceLat[i].Mean()
	}
	if res.MeanLatency, res.P95Latency, err = latencySummary(res.Latency); err != nil {
		return nil, err
	}
	return res, nil
}

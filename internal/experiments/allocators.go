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
// delivered frame.
type SharedUplinkParams struct {
	// ScenarioParams sets the capture and the calibration, in the bytes
	// domain as for OffloadParams: ServiceFraction places each unit
	// device's reference bandwidth between bytes(d_max−1) and
	// bytes(d_max).
	ScenarioParams
	// Devices is the fleet size (default 4); Specs, when non-empty,
	// overrides it with an explicit heterogeneous fleet.
	Devices int
	Specs   []AllocDeviceSpec
	// Allocator splits the uplink bandwidth per slot (default
	// alloc.EqualSplit).
	Allocator alloc.Allocator
	// Link configures the uplink as in OffloadParams. Its BytesPerSlot,
	// when positive, fixes the total bandwidth; otherwise the total is
	// the reference bandwidth times the fleet's demand (the sum over
	// devices of arrivals × cost scale). Each device's V is calibrated
	// against its own scaled reference share either way.
	Link *netem.LinkConfig
	// Dynamics, when non-nil, makes the uplink's total capacity
	// time-varying, as for OffloadParams: the allocator splits
	// Bandwidth × Dynamics.Service(t) each slot. The static bandwidth
	// still anchors V calibration and the propagation link. Each run
	// works on a clone reseeded from Seed, so repeated runs replay the
	// same capacity path.
	Dynamics delay.ServiceProcess
	// Observer receives every device's slot event (Device indexes the
	// fleet); Arrived/Served/Backlog are in bytes.
	Observer sim.Observer
}

func (p SharedUplinkParams) withDefaults() SharedUplinkParams {
	p.ScenarioParams = p.ScenarioParams.withDefaults()
	if p.Devices <= 0 {
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
	Bytes     []int   // stream bytes per depth

	// Multi carries the full per-device byte-domain trajectories and
	// frame accounting.
	Multi     *sim.MultiResult
	PerDevice []SharedUplinkDeviceRow

	MeanLatency float64
	P95Latency  float64
	LossCount   int
}

// SharedUplink runs the fleet against one emulated uplink.
func SharedUplink(params SharedUplinkParams) (*SharedUplinkResult, error) {
	return SharedUplinkContext(context.Background(), params)
}

// SharedUplinkContext is SharedUplink under a cancelable context. The
// uplink's serialization bandwidth is the shared per-slot budget split
// by the allocator (contention), and the netem.Link's propagation leg
// (latency, jitter, loss) is applied to each frame as its last byte
// serializes — lost frames still consumed uplink bytes.
func SharedUplinkContext(ctx context.Context, params SharedUplinkParams) (*SharedUplinkResult, error) {
	p := params.withDefaults()
	if err := validateUplink(p.ScenarioParams, p.Link, p.Dynamics); err != nil {
		return nil, err
	}
	// The scenario sits at the per-device reference bandwidth, as in
	// Offload. The fleet's default total scales it by each device's
	// demand (arrival rate × cost scale), so a homogeneous fleet gets n×
	// the single-device uplink.
	scn, bytesProfile, err := byteScenario(p.ScenarioParams, 0)
	if err != nil {
		return nil, err
	}
	var demandUnits float64
	for _, spec := range p.Specs {
		demandUnits += float64(spec.perSlot()) * spec.scale()
	}
	lc := resolveLink(p.Link, p.Seed)
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
		Bytes:     bytesProfile,
		Multi:     multi,
		PerDevice: make([]SharedUplinkDeviceRow, len(devices)),
	}
	perDeviceLat := make([]stats.Running, len(devices))
	var allLat []float64
	for _, c := range order {
		deliveredSlot, lost := link.Deliver(c.frame.Work, float64(c.frame.CompletedAt))
		if lost {
			res.LossCount++
			res.PerDevice[c.device].Lost++
			continue
		}
		lat := deliveredSlot - float64(c.frame.EnqueuedAt)
		perDeviceLat[c.device].Add(lat)
		allLat = append(allLat, lat)
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
	if res.MeanLatency, res.P95Latency, err = latencySummary(allLat); err != nil {
		return nil, err
	}
	return res, nil
}

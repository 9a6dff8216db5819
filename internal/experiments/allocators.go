package experiments

import (
	"context"
	"errors"
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
// stabilizing budget must exceed.
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
		demand += float64(spec.ArrivalsPerSlot) * spec.CostScale * aMin
	}
	return demand
}

// fleetDevices builds one sim.Device per spec: a fresh drift-plus-penalty
// controller at the scenario's calibrated V over the device's scaled cost
// model, so every device still acts on purely local state.
func fleetDevices(s *Scenario, specs []AllocDeviceSpec) ([]sim.Device, error) {
	devices := make([]sim.Device, len(specs))
	for i, spec := range specs {
		scale := spec.CostScale
		if scale <= 0 {
			scale = 1
		}
		cost, err := delay.NewPointCostModel(s.Profile, scale, 0, 0)
		if err != nil {
			return nil, fmt.Errorf("device %d cost: %w", i, err)
		}
		ctrl, err := core.New(core.Config{
			V:       s.V,
			Depths:  s.Params.Depths,
			Utility: s.Utility,
			Cost:    cost,
		})
		if err != nil {
			return nil, fmt.Errorf("device %d controller: %w", i, err)
		}
		perSlot := spec.ArrivalsPerSlot
		if perSlot <= 0 {
			perSlot = 1
		}
		devices[i] = sim.Device{
			Policy:   ctrl,
			Cost:     cost,
			Utility:  s.Utility,
			Arrivals: &queueing.DeterministicArrivals{PerSlot: perSlot},
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
	// Devices is the fleet size (default 4); Specs, when non-empty,
	// overrides it with an explicit heterogeneous fleet.
	Devices int
	Specs   []AllocDeviceSpec
	// Allocator splits the uplink bandwidth per slot (default
	// alloc.EqualSplit).
	Allocator alloc.Allocator

	// Capture parameters, as in OffloadParams.
	Character    string
	Samples      int
	CaptureDepth int
	Depths       []int
	Seed         uint64

	// Bandwidth, when positive, fixes the total uplink bytes/slot.
	// Otherwise the per-device sizing of OffloadParams applies
	// (BandwidthFraction between bytes(d_max−1) and bytes(d_max)),
	// multiplied by the fleet size.
	Bandwidth         float64
	BandwidthFraction float64
	// BandwidthProcess, when non-nil, makes the shared uplink's total
	// serialization capacity time-varying: the allocator splits
	// whatever the process yields each slot (in absolute bytes/slot)
	// instead of the constant bandwidth above. The static sizing still
	// anchors V calibration and the propagation link; stochastic
	// processes are reseeded deterministically from Seed at the start
	// of every run, so repeated runs replay the same capacity path.
	BandwidthProcess netem.BandwidthProcess
	// Link shape (defaults 2, 0.3, 0.01 as in OffloadParams; zero
	// values take the defaults — use Link to express literal zeros).
	LatencySlots float64
	JitterSlots  float64
	LossProb     float64
	// Link, when non-nil, configures the uplink exactly: its latency,
	// jitter, and loss are used verbatim — zeros included, so lossless
	// or zero-latency uplinks are expressible — its BytesPerSlot (when
	// positive) fixes the total bandwidth like Bandwidth does, and its
	// Seed (when nonzero) replaces Seed for the link RNG.
	Link *netem.LinkConfig

	KneeSlot float64
	Slots    int
	// Observer receives every device's slot event (Device indexes the
	// fleet); Arrived/Served/Backlog are in bytes.
	Observer sim.Observer
}

func (p SharedUplinkParams) withDefaults() SharedUplinkParams {
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

// ErrNoSharedDeliveries is returned when every frame of the fleet was
// lost (degenerate link).
var ErrNoSharedDeliveries = errors.New("experiments: shared uplink delivered no frames")

// bandwidthService adapts a netem.BandwidthProcess into the
// delay.ServiceProcess the multi-device engine consumes: the per-slot
// uplink capacity becomes the shared budget the allocator splits.
// Outage slots (non-positive rates) become zero capacity.
type bandwidthService struct{ p netem.BandwidthProcess }

func (s bandwidthService) Service(t int) float64 {
	r := s.p.Bandwidth(t)
	if r < 0 {
		return 0
	}
	return r
}

func (s bandwidthService) Name() string { return s.p.Name() }

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
	bytesProfile, util, err := captureByteProfiles(p.Character, p.Samples, p.CaptureDepth, p.Depths, p.Seed)
	if err != nil {
		return nil, err
	}

	n := len(p.Specs)
	baseCost, err := delay.NewPointCostModel(bytesProfile, 1, 0, 0)
	if err != nil {
		return nil, fmt.Errorf("bytes cost model: %w", err)
	}
	// Per-device sizing as in Offload: the reference bandwidth sits
	// between bytes(d_max−1) and bytes(d_max). The fleet's default total
	// scales it by each device's demand (arrival rate × cost scale), so
	// a homogeneous fleet gets n× the single-device uplink.
	perDevice := referenceBandwidth(baseCost, p.Depths, p.BandwidthFraction)
	var demandUnits float64
	for _, spec := range p.Specs {
		scale := spec.CostScale
		if scale <= 0 {
			scale = 1
		}
		arr := spec.ArrivalsPerSlot
		if arr <= 0 {
			arr = 1
		}
		demandUnits += float64(arr) * scale
	}
	bandwidth := perDevice * demandUnits
	if p.Bandwidth > 0 {
		bandwidth = p.Bandwidth
	}
	if p.Link != nil && p.Link.BytesPerSlot > 0 {
		bandwidth = p.Link.BytesPerSlot
	}

	// Each device runs its own controller over its scaled byte-cost
	// model, with V calibrated against its own scaled reference share
	// (always below its bytes(d_max), as calibration requires) — purely
	// local control; only the server-side split is coordinated.
	devices := make([]sim.Device, n)
	for i, spec := range p.Specs {
		scale := spec.CostScale
		if scale <= 0 {
			scale = 1
		}
		cost, err := delay.NewPointCostModel(bytesProfile, scale, 0, 0)
		if err != nil {
			return nil, fmt.Errorf("device %d cost: %w", i, err)
		}
		cfg := core.Config{Depths: p.Depths, Utility: util, Cost: cost}
		v, err := core.CalibrateV(p.KneeSlot, scale*perDevice, cfg)
		if err != nil {
			return nil, fmt.Errorf("device %d calibrate V: %w", i, err)
		}
		cfg.V = v
		ctrl, err := core.New(cfg)
		if err != nil {
			return nil, fmt.Errorf("device %d controller: %w", i, err)
		}
		perSlot := spec.ArrivalsPerSlot
		if perSlot <= 0 {
			perSlot = 1
		}
		devices[i] = sim.Device{
			Policy:   ctrl,
			Cost:     cost,
			Utility:  util,
			Arrivals: &queueing.DeterministicArrivals{PerSlot: perSlot},
		}
	}

	var service delay.ServiceProcess = &delay.ConstantService{Rate: bandwidth}
	if p.BandwidthProcess != nil {
		if v, ok := p.BandwidthProcess.(interface{ Validate() error }); ok {
			if err := v.Validate(); err != nil {
				return nil, err
			}
		}
		// Run on a deep copy reseeded from Seed: the caller's process
		// is never mutated and repeated runs replay the same capacity
		// path.
		proc := netem.CloneProcess(p.BandwidthProcess)
		if r, ok := proc.(interface{ Reseed(*geom.RNG) }); ok {
			r.Reseed(geom.NewRNG(p.Seed ^ 0x73686172)) // "shar"
		}
		service = bandwidthService{proc}
	}
	multi, err := sim.RunMultiContext(ctx, sim.MultiConfig{
		Devices:   devices,
		Service:   service,
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
		PerDevice: make([]SharedUplinkDeviceRow, n),
	}
	perDeviceLat := make([]stats.Running, n)
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
	if len(allLat) == 0 {
		return nil, ErrNoSharedDeliveries
	}
	var lat stats.Running
	for _, l := range allLat {
		lat.Add(l)
	}
	res.MeanLatency = lat.Mean()
	p95, err := stats.Percentile(allLat, 95)
	if err != nil {
		return nil, err
	}
	res.P95Latency = p95
	return res, nil
}

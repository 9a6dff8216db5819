package sim

import (
	"context"
	"errors"
	"fmt"

	"qarv/internal/alloc"
	"qarv/internal/delay"
	"qarv/internal/obs"
	"qarv/internal/policy"
	"qarv/internal/quality"
	"qarv/internal/queueing"
)

// The multi-device simulation backs the paper's "fully distributed" claim
// (§II): N devices each run their own controller on purely local state
// (their own backlog), while sharing an edge server's service budget. No
// device sees another's queue — if the system still stabilizes, the
// distributed claim holds under contention. How the edge splits its
// budget is a pluggable alloc.Allocator; the default EqualSplit is the
// paper's information-free baseline, while backlog-aware strategies
// (ProportionalBacklog, MaxWeight, WeightedRoundRobin) model an edge
// that schedules on the queue lengths it can observe server-side.

// Device describes one AR client in a multi-device run.
type Device struct {
	// Policy is the device's local depth controller.
	Policy policy.Policy
	// Cost maps its depth choices to workload (devices may differ, e.g.
	// different capture resolutions).
	Cost delay.CostModel
	// Utility scores its depth choices.
	Utility quality.UtilityModel
	// Arrivals yields its frames per slot.
	Arrivals queueing.ArrivalProcess
	// MaxBacklog, when positive, bounds this device's queue; overflow
	// drops work (and the newest frames) exactly as in single runs.
	MaxBacklog float64
}

// MultiConfig describes a shared-service multi-device run.
type MultiConfig struct {
	Devices []Device
	// Service is the shared edge budget per slot, divided among devices
	// by Allocator.
	Service delay.ServiceProcess
	// Allocator splits the per-slot budget across devices from their
	// observed backlogs. Nil selects alloc.EqualSplit — the uncoordinated,
	// information-free split (each device gets budget/N regardless of
	// backlogs), preserving full distribution.
	Allocator alloc.Allocator
	Slots     int
	// Observer, when non-nil, receives every device's slot event (the
	// event's Device field indexes into Devices), after the run's own
	// telemetry has recorded it.
	Observer Observer
	// Metrics, when non-nil, accumulates run telemetry across all
	// devices plus the alloc_* allocator series into the registry.
	Metrics *obs.Registry
	// Recorder, when non-nil, receives slot-timestamped records; each
	// device is its own track, and allocator decisions land on the
	// "alloc" category.
	Recorder *obs.FlightRecorder
}

// Multi-device validation errors.
var (
	ErrNoDevices = errors.New("sim: no devices")
)

// Validate checks the configuration without running it.
func (c *MultiConfig) Validate() error {
	if len(c.Devices) == 0 {
		return ErrNoDevices
	}
	if c.Service == nil {
		return ErrNilService
	}
	if c.Slots <= 0 {
		return fmt.Errorf("%w: %d", ErrBadSlots, c.Slots)
	}
	for i, dev := range c.Devices {
		if dev.Policy == nil {
			return fmt.Errorf("device %d: %w", i, ErrNilPolicy)
		}
		if dev.Cost == nil {
			return fmt.Errorf("device %d: %w", i, ErrNilCost)
		}
		if dev.Utility == nil {
			return fmt.Errorf("device %d: %w", i, ErrNilUtility)
		}
		if dev.Arrivals == nil {
			return fmt.Errorf("device %d: %w", i, ErrNilArrivals)
		}
	}
	return nil
}

// MultiResult aggregates per-device results of a shared run. Each
// per-device Result carries the full frame accounting (Completed,
// MeanSojourn, Little, DroppedWork/DroppedFrames), exactly as a
// single-device run would.
type MultiResult struct {
	PerDevice []*Result
	// Allocator names the budget-split strategy that drove the run.
	Allocator string
	// TotalTimeAvgBacklog sums devices' time-average backlogs.
	TotalTimeAvgBacklog float64
	// MeanTimeAvgUtility averages devices' time-average utilities.
	MeanTimeAvgUtility float64
}

// SummedBacklog returns the devices' backlogs summed slot by slot: the
// one queue the shared budget serves.
func (r *MultiResult) SummedBacklog() []float64 {
	if len(r.PerDevice) == 0 {
		return nil
	}
	sum := make([]float64, len(r.PerDevice[0].Backlog))
	for _, d := range r.PerDevice {
		for t, q := range d.Backlog {
			sum[t] += q
		}
	}
	return sum
}

// Verdict classifies a shared run by its summed backlog trajectory
// (SummedBacklog): devices contending for one budget stabilize or
// diverge together.
func (r *MultiResult) Verdict() (queueing.Verdict, error) {
	return queueing.ClassifyTrajectory(r.SummedBacklog(), 0)
}

// RunMulti executes N devices against a shared service budget.
func RunMulti(cfg MultiConfig) (*MultiResult, error) {
	return RunMultiContext(context.Background(), cfg)
}

// RunMultiContext is RunMulti under a cancelable context: the slot loop
// polls ctx once per queueing.PollEvery slots and aborts with the
// context's error.
func RunMultiContext(ctx context.Context, cfg MultiConfig) (*MultiResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	allocator := cfg.Allocator
	if allocator == nil {
		allocator = alloc.EqualSplit{}
	}
	n := len(cfg.Devices)
	runners := make([]*deviceRunner, n)
	for i, dev := range cfg.Devices {
		runners[i] = newDeviceRunner(dev.Policy, dev.Cost, dev.Utility,
			dev.Arrivals, dev.MaxBacklog, cfg.Slots)
	}
	// Telemetry is the first observer, so its records land before
	// anything the caller's observer does with the same slot.
	observe := Join(newTelemetry(cfg.Metrics, cfg.Recorder), cfg.Observer)
	name := allocator.Name()
	var allocSlots *obs.Counter
	var allocShare *obs.Histogram
	telemetryOn := cfg.Metrics != nil || cfg.Recorder != nil
	if telemetryOn {
		allocSlots = cfg.Metrics.Counter(MetricAllocSlots)
		allocShare = cfg.Metrics.Histogram(MetricAllocShare)
		if lt, ok := allocator.(interface {
			BindTelemetry(*obs.Registry, *obs.FlightRecorder)
		}); ok {
			lt.BindTelemetry(cfg.Metrics, cfg.Recorder)
		}
	}
	// Online-learning allocators close the loop through the optional
	// Learner interface: after each slot they observe the realized
	// per-device utilities and end-of-slot backlogs their split
	// produced.
	learner, _ := allocator.(alloc.Learner)
	var utilities []float64
	if learner != nil {
		utilities = make([]float64, n)
	}

	backlogs := make([]float64, n)
	shares := make([]float64, n)
	cancel := queueing.NewCancelCheck(ctx, 0)
	for t := 0; t < cfg.Slots; t++ {
		if err := cancel.Check(); err != nil {
			return nil, fmt.Errorf("sim: canceled at slot %d: %w", t, err)
		}
		budget := cfg.Service.Service(t)
		for i, r := range runners {
			backlogs[i] = r.k.Level()
		}
		allocator.Allocate(t, budget, backlogs, shares)
		if telemetryOn {
			allocSlots.Inc()
			for i, s := range shares {
				allocShare.Observe(s)
				cfg.Recorder.Event(int64(t), "alloc", name, int64(i), s)
			}
		}
		for i, r := range runners {
			r.step(t, shares[i], i, observe)
		}
		if learner != nil {
			for i, r := range runners {
				utilities[i] = r.res.Utility[t]
				backlogs[i] = r.k.Level()
			}
			learner.Learn(t, utilities, backlogs)
		}
	}

	out := &MultiResult{
		PerDevice: make([]*Result, n),
		Allocator: name,
	}
	for i, r := range runners {
		res := r.finalize(cfg.Slots)
		out.PerDevice[i] = res
		out.TotalTimeAvgBacklog += res.TimeAvgBacklog
		out.MeanTimeAvgUtility += res.TimeAvgUtility
	}
	out.MeanTimeAvgUtility /= float64(n)
	return out, nil
}

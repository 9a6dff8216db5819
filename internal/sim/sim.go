// Package sim runs the slotted AR-visualization simulation that couples a
// depth-selection policy, a frame arrival process, the depth→workload cost
// model, and the device's service process — the experiment engine behind
// Fig. 2 and every ablation. One slot is the paper's "unit time": frames
// arrive, the policy picks an Octree depth from the observed backlog, the
// chosen depth's workload joins the queue, and the device serves what it
// can.
package sim

import (
	"context"
	"errors"
	"fmt"

	"qarv/internal/delay"
	"qarv/internal/obs"
	"qarv/internal/policy"
	"qarv/internal/quality"
	"qarv/internal/queueing"
)

// SlotEvent is one slot's control decision and queue transition: the
// record Kernel.Step fills, kept by the run loops and emitted to
// observers as the loop runs so streaming/tracing consumers don't need
// to post-process full trajectories.
type SlotEvent struct {
	// Slot is the time step t.
	Slot int
	// Device indexes the device in multi-device runs; -1 in single runs.
	Device int
	// Backlog is Q(t) observed at the start of the slot.
	Backlog float64
	// Depth is the chosen d(t).
	Depth int
	// Utility is pa(d(t)).
	Utility float64
	// Arrived is the work enqueued this slot.
	Arrived float64
	// Served is the work served this slot.
	Served float64
	// Dropped is the work the bounded backlog rejected this slot.
	Dropped float64
	// Frames counts the frames that arrived this slot.
	Frames int
	// DroppedFrames counts the frames bounded-backlog overflow removed
	// whole this slot.
	DroppedFrames int
	// Completed lists the frames that finished service this slot. The
	// slice is the kernel's frame-queue buffer, reused on the next slot:
	// observers may read it during the call but must copy what they
	// keep.
	Completed []queueing.Completed
}

// Observer receives each slot's event synchronously from the loop
// goroutine; implementations must be fast or hand off to a channel.
type Observer func(SlotEvent)

// Join folds observers into one that calls each non-nil entry in
// argument order. It returns nil when no entry is live and the entry
// itself when exactly one is, so a run with nothing attached keeps its
// nil fast path and a single observer pays no extra call.
func Join(observers ...Observer) Observer {
	var live []Observer
	for _, o := range observers {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return func(e SlotEvent) {
		for _, o := range live {
			o(e)
		}
	}
}

// Config describes one simulation run.
type Config struct {
	// Policy picks the depth each slot.
	Policy policy.Policy
	// Arrivals yields frames per slot (the paper uses one frame per slot).
	Arrivals queueing.ArrivalProcess
	// Cost maps the chosen depth to per-frame workload a(d).
	Cost delay.CostModel
	// Utility scores the chosen depth pa(d) for the objective (1).
	Utility quality.UtilityModel
	// Service yields per-slot capacity b(t).
	Service delay.ServiceProcess
	// Slots is the horizon T.
	Slots int
	// MaxBacklog, when positive, bounds the queue (overflow drops work).
	MaxBacklog float64
	// Observer, when non-nil, receives every slot's event as it happens,
	// after the run's own telemetry (Metrics, Recorder) has recorded it.
	Observer Observer
	// Metrics, when non-nil, accumulates run telemetry (slot counters,
	// backlog/utility/sojourn distributions) into the registry. Nil
	// disables metrics at the cost of one pointer check per slot.
	Metrics *obs.Registry
	// Recorder, when non-nil, receives slot-timestamped flight-recorder
	// records: per-slot spans, depth changes, and drop events.
	Recorder *obs.FlightRecorder
}

// Config validation errors.
var (
	ErrNilPolicy   = errors.New("sim: nil policy")
	ErrNilArrivals = errors.New("sim: nil arrival process")
	ErrNilCost     = errors.New("sim: nil cost model")
	ErrNilUtility  = errors.New("sim: nil utility model")
	ErrNilService  = errors.New("sim: nil service process")
	ErrBadSlots    = errors.New("sim: slot count must be positive")
)

// Validate checks the configuration without running it (the Session API
// validates once at construction).
func (c *Config) Validate() error { return c.validate() }

func (c *Config) validate() error {
	switch {
	case c.Policy == nil:
		return ErrNilPolicy
	case c.Arrivals == nil:
		return ErrNilArrivals
	case c.Cost == nil:
		return ErrNilCost
	case c.Utility == nil:
		return ErrNilUtility
	case c.Service == nil:
		return ErrNilService
	case c.Slots <= 0:
		return fmt.Errorf("%w: %d", ErrBadSlots, c.Slots)
	}
	return nil
}

// Result holds the full trajectory of one run plus summary statistics.
type Result struct {
	PolicyName string

	// Per-slot series, each of length Slots.
	Backlog []float64 // Q(t) observed at the start of slot t
	Depth   []int     // d(t) chosen in slot t
	Utility []float64 // pa(d(t))

	// Frame accounting.
	Completed []queueing.Completed
	// DroppedWork is the work rejected by the bounded backlog;
	// DroppedFrames counts the frames that overflow removed whole from
	// the frame queue (they never complete).
	DroppedWork   float64
	DroppedFrames int
	MeanSojourn   float64
	Little        queueing.LittleEstimator

	// Summaries of the objective and constraint.
	TimeAvgUtility float64 // (1/T)·Σ pa(d(τ)) — objective (1)
	TimeAvgBacklog float64 // (1/T)·Σ Q(τ)   — constraint (2)
	FinalBacklog   float64
	MaxBacklog     float64
}

// Verdict classifies the backlog trajectory per Fig. 2(a).
func (r *Result) Verdict() (queueing.Verdict, error) {
	return queueing.ClassifyTrajectory(r.Backlog, 0)
}

// DepthHistogram counts slots per chosen depth.
func (r *Result) DepthHistogram() map[int]int {
	h := make(map[int]int)
	for _, d := range r.Depth {
		h[d]++
	}
	return h
}

// deviceRunner records one device's run from its Kernel's slots, shared
// by single-device (RunContext) and multi-device (RunMultiContext) runs,
// so every device gets the same full per-frame accounting: the per-slot
// series, Completed records, the Little estimator, and drop counts.
type deviceRunner struct {
	k   Kernel
	res *Result

	utilSum    float64
	backlogSum float64
}

func newDeviceRunner(p policy.Policy, cost delay.CostModel, utility quality.UtilityModel,
	arrivals queueing.ArrivalProcess, maxBacklog float64, slots int) *deviceRunner {
	r := &deviceRunner{
		res: &Result{
			PolicyName: p.Name(),
			Backlog:    make([]float64, slots),
			Depth:      make([]int, slots),
			Utility:    make([]float64, slots),
		},
	}
	r.k.Reset(Device{Policy: p, Cost: cost, Utility: utility, Arrivals: arrivals, MaxBacklog: maxBacklog})
	return r
}

// step advances the device one slot against the given service capacity
// and hands the slot to observe, when non-nil. device tags the event (-1
// for single-device runs).
func (r *deviceRunner) step(t int, capacity float64, device int, observe Observer) {
	s := SlotEvent{Device: device}
	r.k.Step(t, capacity, &s)
	res := r.res
	q := s.Backlog
	res.Backlog[t] = q
	r.backlogSum += q
	if q > res.MaxBacklog {
		res.MaxBacklog = q
	}
	res.Depth[t] = s.Depth
	res.Utility[t] = s.Utility
	r.utilSum += s.Utility
	res.DroppedFrames += s.DroppedFrames
	admitted := max(s.Frames-s.DroppedFrames, 0)
	for _, c := range s.Completed {
		res.Completed = append(res.Completed, c)
		res.Little.ObserveCompletion(c.Sojourn)
	}
	// Sample the queue at end of slot so L and W use the same clock
	// (a frame completing in its arrival slot contributes 0 to both).
	// λ counts only admitted frames: overflow-removed frames never
	// complete, so offering them to the estimator would fake a
	// Little's-law violation in exactly the drop regime.
	res.Little.ObserveSlot(float64(r.k.QueuedFrames()), admitted)
	if observe != nil {
		observe(s)
	}
}

// finalize fills the run summaries after the last slot.
func (r *deviceRunner) finalize(slots int) *Result {
	res := r.res
	res.DroppedWork = r.k.TotalDropped()
	res.FinalBacklog = r.k.Level()
	res.TimeAvgUtility = r.utilSum / float64(slots)
	res.TimeAvgBacklog = r.backlogSum / float64(slots)
	res.MeanSojourn = res.Little.W() // the same sojourn sum, in the same order
	return res
}

// RunContext executes the simulation under a context: the slot loop polls
// ctx once per queueing.PollEvery slots and aborts with the context's
// error, so even million-slot runs cancel promptly.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	dev := newDeviceRunner(cfg.Policy, cfg.Cost, cfg.Utility, cfg.Arrivals, cfg.MaxBacklog, cfg.Slots)
	// Telemetry is the first observer, so its records land before
	// anything the caller's observer does with the same slot.
	observe := Join(newTelemetry(cfg.Metrics, cfg.Recorder), cfg.Observer)
	cancel := queueing.NewCancelCheck(ctx, 0)
	for t := 0; t < cfg.Slots; t++ {
		if err := cancel.Check(); err != nil {
			return nil, fmt.Errorf("sim: canceled at slot %d: %w", t, err)
		}
		dev.step(t, cfg.Service.Service(t), -1, observe)
	}
	return dev.finalize(cfg.Slots), nil
}

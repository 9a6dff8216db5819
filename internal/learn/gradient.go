package learn

import (
	"math"
	"strconv"

	"qarv/internal/obs"
)

// Gradient default hyperparameters: the mix between backlog pressure
// and utility deficit in the ascent direction, the per-device share
// floor (as a fraction of the uniform share) that prevents starvation,
// and the step-decay horizon in slots.
const (
	gradientBacklogMix = 0.7
	gradientFloorFrac  = 0.1
	gradientDecaySlots = 256
)

// Gradient is a projected-gradient allocator: it keeps a weight vector
// on the device simplex and, each slot, steps it along the observed
// gradient of the run's drift-plus-penalty objective — the drift term
// contributes each device's share of total backlog (∂/∂share of the
// quadratic Lyapunov drift is −Q_i, so ascent pushes share toward long
// queues), and the penalty term contributes the device's utility
// deficit against the best utility it has achieved so far. The update
// is projected back onto the simplex with a small per-device floor so
// no device is ever starved, and the step size decays ~1/√t so the
// weights settle once the fleet's demand profile is learned.
//
// Gradient is fully deterministic (no RNG): the same backlog/utility
// trajectory always produces the same shares.
type Gradient struct {
	step      float64
	floorFrac float64

	weights []float64
	scores  []float64
	umax    []float64 // best utility observed per device
	slots   float64

	tel *telemetry
}

// NewGradient returns a projected-gradient allocator with the given
// base step size (non-positive values fall back to DefaultStep).
func NewGradient(step float64) *Gradient {
	if step <= 0 {
		step = DefaultStep
	}
	return &Gradient{step: step, floorFrac: gradientFloorFrac}
}

// Name implements alloc.Allocator.
func (g *Gradient) Name() string {
	return "gradient:" + strconv.FormatFloat(g.step, 'g', -1, 64)
}

// BindTelemetry attaches the run's telemetry sinks (either may be
// nil); the simulator calls it once before the slot loop.
func (g *Gradient) BindTelemetry(reg *obs.Registry, rec *obs.FlightRecorder) {
	g.tel = newTelemetry(reg, rec)
}

// Clone returns a run-isolated copy with the learned weights and
// statistics deep-copied.
func (g *Gradient) Clone() *Gradient {
	if g == nil {
		return nil
	}
	c := *g
	c.weights = append([]float64(nil), g.weights...)
	c.scores = append([]float64(nil), g.scores...)
	c.umax = append([]float64(nil), g.umax...)
	c.tel = nil // telemetry sinks are per-run; the clone binds its own
	return &c
}

// resize (re)initializes the learned state for a fleet of n devices;
// weights start uniform.
func (g *Gradient) resize(n int) {
	g.weights = make([]float64, n)
	g.scores = make([]float64, n)
	g.umax = make([]float64, n)
	for i := range g.weights {
		g.weights[i] = 1 / float64(n)
	}
}

// Allocate implements alloc.Allocator: shares follow the current
// simplex weights, so the split is work-conserving by construction.
func (g *Gradient) Allocate(_ int, budget float64, _, shares []float64) {
	n := len(shares)
	if n == 0 {
		return
	}
	if len(g.weights) != n {
		g.resize(n)
	}
	for i := range shares {
		shares[i] = budget * g.weights[i]
	}
}

// Learn implements alloc.Learner: step the weights along the observed
// objective gradient and project back onto the floored simplex.
func (g *Gradient) Learn(t int, utilities, backlogs []float64) {
	n := len(utilities)
	if n == 0 {
		return
	}
	if len(g.weights) != n {
		g.resize(n)
	}
	var totalQ float64
	for _, q := range backlogs {
		if q > 0 {
			totalQ += q
		}
	}
	var mean float64
	for i := 0; i < n; i++ {
		q := backlogs[i]
		if q < 0 {
			q = 0
		}
		if utilities[i] > g.umax[i] {
			g.umax[i] = utilities[i]
		}
		deficit := 0.0
		if g.umax[i] > 0 {
			deficit = (g.umax[i] - utilities[i]) / g.umax[i]
		}
		backlogShare := 0.0
		if totalQ > 0 {
			backlogShare = q / totalQ
		}
		g.scores[i] = gradientBacklogMix*backlogShare + (1-gradientBacklogMix)*deficit
		mean += g.scores[i]
	}
	mean /= float64(n)

	step := g.step / math.Sqrt(1+g.slots/gradientDecaySlots)
	g.slots++
	floor := g.floorFrac / float64(n)
	var sum float64
	for i := 0; i < n; i++ {
		w := g.weights[i] + step*(g.scores[i]-mean)
		if w < floor {
			w = floor
		}
		g.weights[i] = w
		sum += w
	}
	for i := 0; i < n; i++ {
		g.weights[i] /= sum
	}
	if g.tel != nil {
		g.tel.updates.Inc()
		g.tel.step.Record(step)
		g.tel.rec.Event(int64(t), "learn", g.Name(), int64(t), step)
	}
}

package netem

// The dynamics layer turns the static-bandwidth uplink into the
// time-varying regime the paper's "network-based applications" actually
// live in: capacities that burst and fade (Markov-modulated good/bad
// states), measured traces replayed piecewise, and mobility handoffs
// that reset the link with an outage gap. Each process is a
// delay.ServiceProcess, so the same types drive sim sessions, fleet
// profile mixes and — as a factor on the calibrated bandwidth, the
// capacity the slot kernel serves each slot — the uplink of offload and
// shared-uplink runs.
//
// Determinism: the stochastic processes (MarkovBandwidth,
// HandoffBandwidth) draw from a geom.RNG and declare Reseed and ForRun,
// so qarv.WithSeed keeps whole reports byte-identical. Every consumer
// that runs a shape more than once — shared-uplink runs, sweep cells,
// the CLIs' -net classes — keeps it as a prototype and gives each run
// its own copy through delay.ForRun, reseeded from the run's seed,
// exactly as the link RNG is rebuilt per run.
//
// A non-positive rate means nothing is served that slot (an outage).
// The stateful processes treat a t regression as a restarted slot loop
// (the same session Run again) and reset their chain state while
// continuing their RNG stream.

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"qarv/internal/delay"
	"qarv/internal/geom"
)

// Dynamics validation errors.
var (
	ErrBadMarkov  = errors.New("netem: invalid markov bandwidth parameters")
	ErrEmptyTrace = errors.New("netem: bandwidth trace needs at least one point")
	ErrBadTrace   = errors.New("netem: invalid bandwidth trace")
	ErrBadHandoff = errors.New("netem: invalid handoff parameters")
)

// ---------------------------------------------------------------------------
// MarkovBandwidth
// ---------------------------------------------------------------------------

// MarkovBandwidth is a two-state Markov-modulated capacity process — the
// Gilbert–Elliott shape of a fading radio channel: the link dwells in a
// good state at GoodRate, transitions to a bad state (deep fade,
// congestion) with probability PGoodBad per slot, and recovers with
// probability PBadGood. A zero BadRate models a full outage state.
//
// The chain advances one transition per simulated slot. With a nil RNG
// the process never transitions (it stays in its start state); offload
// runs and qarv.WithSeed reseed it deterministically.
type MarkovBandwidth struct {
	// GoodRate and BadRate are the two capacity levels (bytes/slot, or
	// unitless for a factor). GoodRate must be positive; BadRate
	// non-negative (0 = outage).
	GoodRate, BadRate float64
	// PGoodBad and PBadGood are the per-slot transition probabilities,
	// each in [0, 1]. Mean dwell times are 1/PGoodBad and 1/PBadGood
	// slots.
	PGoodBad, PBadGood float64
	// StartBad starts the chain in the bad state.
	StartBad bool
	// RNG drives the transitions.
	RNG *geom.RNG

	init  bool
	bad   bool
	lastT int
}

// Validate checks the parameters without running the chain.
func (m *MarkovBandwidth) Validate() error {
	switch {
	case m.GoodRate <= 0 || math.IsNaN(m.GoodRate) || math.IsInf(m.GoodRate, 0):
		return fmt.Errorf("%w: GoodRate %v must be positive", ErrBadMarkov, m.GoodRate)
	case m.BadRate < 0 || math.IsNaN(m.BadRate) || math.IsInf(m.BadRate, 0):
		return fmt.Errorf("%w: BadRate %v must be non-negative", ErrBadMarkov, m.BadRate)
	case m.PGoodBad < 0 || m.PGoodBad > 1 || math.IsNaN(m.PGoodBad):
		return fmt.Errorf("%w: PGoodBad %v not in [0,1]", ErrBadMarkov, m.PGoodBad)
	case m.PBadGood < 0 || m.PBadGood > 1 || math.IsNaN(m.PBadGood):
		return fmt.Errorf("%w: PBadGood %v not in [0,1]", ErrBadMarkov, m.PBadGood)
	}
	return nil
}

// Service implements delay.ServiceProcess.
func (m *MarkovBandwidth) Service(t int) float64 {
	if !m.init || t < m.lastT {
		// First call, or t regressed: a slot loop restarted (the same
		// session Run again). Reset to the start state and continue the
		// RNG stream, exactly as PoissonArrivals/NoisyService continue
		// theirs — a frozen chain would silently stop being Markov.
		m.init = true
		m.bad = m.StartBad
		m.lastT = t
	}
	for m.lastT < t {
		m.lastT++
		if m.RNG == nil {
			continue
		}
		if m.bad {
			if m.RNG.Float64() < m.PBadGood {
				m.bad = false
			}
		} else if m.RNG.Float64() < m.PGoodBad {
			m.bad = true
		}
	}
	if m.bad {
		return m.BadRate
	}
	return m.GoodRate
}

// Name implements delay.ServiceProcess.
func (m *MarkovBandwidth) Name() string { return "markov-bw" }

// Reseed replaces the chain's RNG and resets it to its start state —
// the hook qarv.WithSeed (and every offload run) uses to keep reports
// byte-identical per seed.
func (m *MarkovBandwidth) Reseed(rng *geom.RNG) {
	m.RNG = rng
	m.init = false
}

// ForRun returns a copy of the chain reseeded with stream() and reset
// to its start state, so a run never advances the prototype's chain.
func (m *MarkovBandwidth) ForRun(stream func() *geom.RNG) delay.ServiceProcess {
	c := *m
	c.Reseed(stream())
	return &c
}

// ---------------------------------------------------------------------------
// TraceBandwidth
// ---------------------------------------------------------------------------

// TracePoint is one step of a piecewise-constant capacity trace: from
// Slot onward the process yields BytesPerSlot, until the next point
// takes over.
type TracePoint struct {
	// Slot is the first slot the rate applies to.
	Slot int `json:"slot"`
	// BytesPerSlot is the rate from Slot on — bytes/slot for a measured
	// capture, a unitless multiplier for a factor trace. Zero models an
	// outage segment.
	BytesPerSlot float64 `json:"bytes_per_slot"`
}

// TraceBandwidth replays a recorded capacity trace piecewise: the rate
// of slot t is the BytesPerSlot of the last point at or before t (the
// first point's rate applies before its own slot, so a trace starting
// at slot 100 is well-defined from slot 0). With Period > 0 the trace
// wraps — slot t reads the trace at t mod Period — otherwise the final
// rate holds forever. The process is a pure function of t: no RNG, and
// replays are trivially deterministic.
type TraceBandwidth struct {
	// Points is the piecewise schedule, strictly ascending in Slot.
	Points []TracePoint
	// Period, when positive, wraps the replay every Period slots; it
	// must exceed the last point's slot.
	Period int
}

// NewTraceBandwidth validates points (and the optional wrap period)
// into a replayable trace. It is the constructor behind the CSV/JSON
// loaders; literals are validated where a run validates its dynamics.
func NewTraceBandwidth(points []TracePoint, period int) (*TraceBandwidth, error) {
	tb := &TraceBandwidth{Points: points, Period: period}
	if err := tb.Validate(); err != nil {
		return nil, err
	}
	return tb, nil
}

// Validate checks the trace structure: at least one point (a
// zero-length trace has no defined rate anywhere), non-negative
// strictly-ascending slots, non-negative finite rates, and a wrap
// period beyond the last point.
func (tb *TraceBandwidth) Validate() error {
	if len(tb.Points) == 0 {
		return ErrEmptyTrace
	}
	for i, p := range tb.Points {
		if p.Slot < 0 {
			return fmt.Errorf("%w: point %d slot %d negative", ErrBadTrace, i, p.Slot)
		}
		if i > 0 && p.Slot <= tb.Points[i-1].Slot {
			return fmt.Errorf("%w: point %d slot %d not after %d", ErrBadTrace, i, p.Slot, tb.Points[i-1].Slot)
		}
		if p.BytesPerSlot < 0 || math.IsNaN(p.BytesPerSlot) || math.IsInf(p.BytesPerSlot, 0) {
			return fmt.Errorf("%w: point %d rate %v", ErrBadTrace, i, p.BytesPerSlot)
		}
	}
	if tb.Period != 0 && tb.Period <= tb.Points[len(tb.Points)-1].Slot {
		return fmt.Errorf("%w: period %d not beyond last slot %d", ErrBadTrace, tb.Period, tb.Points[len(tb.Points)-1].Slot)
	}
	return nil
}

// Normalized returns a copy of the trace rescaled so its peak rate is
// 1 — the unitless factor form every dynamics consumer takes (the -net
// classes' delay.ModulatedService, an uplink's Dynamics). Hand-written
// factor patterns whose peak is already 1 round-trip unchanged;
// measured bytes/slot traces become fractions of their peak capacity.
// An all-zero trace has no peak to normalize against and is rejected.
func (tb *TraceBandwidth) Normalized() (*TraceBandwidth, error) {
	if err := tb.Validate(); err != nil {
		return nil, err
	}
	peak := 0.0
	for _, p := range tb.Points {
		if p.BytesPerSlot > peak {
			peak = p.BytesPerSlot
		}
	}
	if peak <= 0 {
		return nil, fmt.Errorf("%w: all-zero trace cannot be normalized", ErrBadTrace)
	}
	points := make([]TracePoint, len(tb.Points))
	for i, p := range tb.Points {
		points[i] = TracePoint{Slot: p.Slot, BytesPerSlot: p.BytesPerSlot / peak}
	}
	return &TraceBandwidth{Points: points, Period: tb.Period}, nil
}

// Service implements delay.ServiceProcess.
func (tb *TraceBandwidth) Service(t int) float64 {
	if len(tb.Points) == 0 {
		return 0
	}
	if tb.Period > 0 {
		t %= tb.Period
		if t < 0 {
			t += tb.Period
		}
	}
	// The first point past t; its predecessor holds the rate.
	i := sort.Search(len(tb.Points), func(i int) bool { return tb.Points[i].Slot > t })
	if i == 0 {
		return tb.Points[0].BytesPerSlot
	}
	return tb.Points[i-1].BytesPerSlot
}

// Name implements delay.ServiceProcess.
func (tb *TraceBandwidth) Name() string { return "trace-bw" }

// ---------------------------------------------------------------------------
// HandoffBandwidth
// ---------------------------------------------------------------------------

// HandoffBandwidth models mobility: the device dwells in a cell for an
// exponentially distributed interval (MeanIntervalSlots), then hands
// off — the link goes dark for OutageSlots (rate 0) and comes back
// reset to the new cell's capacity, the base rate scaled by a uniform
// draw from [ScaleLo, ScaleHi]. Base, when non-nil, supplies the
// underlying capacity per slot (so handoffs compose with a Markov or
// trace process); otherwise BaseRate is used.
//
// With a nil RNG no handoff ever fires and the scale stays 1. Offload
// runs and qarv.WithSeed reseed the process deterministically.
type HandoffBandwidth struct {
	// BaseRate is the nominal cell capacity (bytes/slot, or 1 for a
	// factor) when Base is nil.
	BaseRate float64
	// Base, when non-nil, yields the underlying capacity per slot that
	// the cell scale multiplies.
	Base delay.ServiceProcess
	// MeanIntervalSlots is the mean dwell time between handoffs
	// (exponential; must be positive).
	MeanIntervalSlots float64
	// OutageSlots is the dead time per handoff (non-negative).
	OutageSlots float64
	// ScaleLo and ScaleHi bound the uniform new-cell capacity scale;
	// both zero means the scale is pinned to 1.
	ScaleLo, ScaleHi float64
	// RNG drives handoff times and cell scales.
	RNG *geom.RNG

	init        bool
	lastT       int
	next        float64 // slot of the next handoff
	outageUntil float64
	scale       float64
}

// Validate checks the parameters without running the process.
func (h *HandoffBandwidth) Validate() error {
	switch {
	case h.Base == nil && (h.BaseRate <= 0 || math.IsNaN(h.BaseRate) || math.IsInf(h.BaseRate, 0)):
		return fmt.Errorf("%w: BaseRate %v must be positive (or set Base)", ErrBadHandoff, h.BaseRate)
	case h.MeanIntervalSlots <= 0 || math.IsNaN(h.MeanIntervalSlots):
		return fmt.Errorf("%w: MeanIntervalSlots %v must be positive", ErrBadHandoff, h.MeanIntervalSlots)
	case h.OutageSlots < 0 || math.IsNaN(h.OutageSlots):
		return fmt.Errorf("%w: OutageSlots %v must be non-negative", ErrBadHandoff, h.OutageSlots)
	case h.ScaleLo < 0 || h.ScaleHi < h.ScaleLo || math.IsNaN(h.ScaleLo) || math.IsNaN(h.ScaleHi):
		return fmt.Errorf("%w: scale range [%v, %v]", ErrBadHandoff, h.ScaleLo, h.ScaleHi)
	}
	if v, ok := h.Base.(interface{ Validate() error }); ok {
		return v.Validate()
	}
	return nil
}

// interval draws the next inter-handoff dwell, floored at one slot so
// the event loop always progresses.
func (h *HandoffBandwidth) interval() float64 {
	d := h.RNG.Exp(h.MeanIntervalSlots)
	if d < 1 {
		d = 1
	}
	return d
}

// Service implements delay.ServiceProcess.
func (h *HandoffBandwidth) Service(t int) float64 {
	if !h.init || t < h.lastT {
		// First call, or t regressed (a restarted slot loop — the same
		// session Run again): reset the cell and draw a fresh dwell
		// from the continuing RNG stream.
		h.init = true
		h.scale = 1
		h.outageUntil = 0
		if h.RNG != nil {
			h.next = float64(t) + h.interval()
		} else {
			h.next = math.Inf(1)
		}
	}
	h.lastT = t
	for float64(t) >= h.next {
		h.outageUntil = h.next + h.OutageSlots
		if h.ScaleLo == 0 && h.ScaleHi == 0 {
			h.scale = 1
		} else {
			h.scale = h.RNG.Range(h.ScaleLo, h.ScaleHi)
		}
		h.next += h.interval()
	}
	if float64(t) < h.outageUntil {
		return 0
	}
	base := h.BaseRate
	if h.Base != nil {
		base = h.Base.Service(t)
	}
	return h.scale * base
}

// Name implements delay.ServiceProcess.
func (h *HandoffBandwidth) Name() string {
	if h.Base != nil {
		return "handoff(" + h.Base.Name() + ")"
	}
	return "handoff"
}

// Reseed replaces the process's RNG and resets it (next handoff, cell
// scale, outage window); a reseedable Base gets a child stream split
// from rng, mirroring the session reseeding contract.
func (h *HandoffBandwidth) Reseed(rng *geom.RNG) {
	h.RNG = rng
	h.init = false
	if r, ok := h.Base.(interface{ Reseed(*geom.RNG) }); ok {
		r.Reseed(rng.Split())
	}
}

// ForRun returns a copy of the process on one stream() draw, reset as
// Reseed resets it; Base becomes its own run's process through
// delay.ForRun on a child stream, the one Reseed would split, so a run
// never advances the prototype or its Base.
func (h *HandoffBandwidth) ForRun(stream func() *geom.RNG) delay.ServiceProcess {
	c := *h
	c.RNG, c.init = stream(), false
	c.Base = delay.ForRun(h.Base, c.RNG.Split)
	return &c
}

// ---------------------------------------------------------------------------
// Shared network-class presets
// ---------------------------------------------------------------------------
//
// The CLIs (qarvsim -net, qarvfleet -net) and examples share these
// default regimes as *factor* processes: rates are unitless multipliers
// around 1 meant for delay.ModulatedService composition with whatever
// service or bandwidth a scenario calibrated.

// DefaultMarkovFactor returns the default Gilbert–Elliott fading factor
// chain: ×1 in the good state, ×0.3 in the bad, mean dwells 20 and 4
// slots. A nil rng leaves the chain pinned to its start state.
func DefaultMarkovFactor(rng *geom.RNG) *MarkovBandwidth {
	return &MarkovBandwidth{
		GoodRate: 1, BadRate: 0.3,
		PGoodBad: 0.05, PBadGood: 0.25,
		RNG: rng,
	}
}

// DefaultHandoffFactor returns the default mobility factor process:
// mean 250-slot cell dwells, 4-slot outages, new-cell scale drawn from
// [0.7, 1.2]. A nil rng never hands off.
func DefaultHandoffFactor(rng *geom.RNG) *HandoffBandwidth {
	return &HandoffBandwidth{
		BaseRate:          1,
		MeanIntervalSlots: 250,
		OutageSlots:       4,
		ScaleLo:           0.7,
		ScaleHi:           1.2,
		RNG:               rng,
	}
}

// LoadFactorTrace is the CLI -net trace-class loader shared by qarvsim
// and qarvfleet: an empty path returns the built-in diurnal pattern,
// anything else loads the file and normalizes it to its peak, so
// measured bytes/slot captures and hand-written factor patterns (peak
// 1) both modulate a service sensibly.
func LoadFactorTrace(path string) (*TraceBandwidth, error) {
	if path == "" {
		return DefaultDiurnalTrace(), nil
	}
	tb, err := LoadTraceFile(path)
	if err != nil {
		return nil, err
	}
	return tb.Normalized()
}

// DefaultDiurnalTrace returns the default built-in factor trace: a
// 240-slot cycle dipping to ×0.6 mid-period — the shape of a
// daily-load capacity curve compressed to simulation scale.
func DefaultDiurnalTrace() *TraceBandwidth {
	// The literal is valid by construction; NewTraceBandwidth cannot
	// fail on it.
	tb, err := NewTraceBandwidth([]TracePoint{
		{Slot: 0, BytesPerSlot: 1},
		{Slot: 60, BytesPerSlot: 0.85},
		{Slot: 120, BytesPerSlot: 0.6},
		{Slot: 180, BytesPerSlot: 0.85},
	}, 240)
	if err != nil {
		panic(err)
	}
	return tb
}

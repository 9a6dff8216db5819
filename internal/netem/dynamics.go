package netem

// The dynamics layer turns the static-parameter Link into the
// time-varying regime the paper's "network-based applications" actually
// live in: capacities that burst and fade (Markov-modulated good/bad
// states), measured traces replayed piecewise, and mobility handoffs
// that reset the link with an outage gap. A BandwidthProcess yields the
// per-slot serialization rate; LinkDynamics binds one to a Link and
// applies it each slot. Every process also implements Service(t), so
// the same types drive delay.ServiceProcess consumers — sim sessions,
// shared-uplink budgets, and fleet profile mixes — without adapters.
//
// Determinism: the stochastic processes (MarkovBandwidth,
// HandoffBandwidth) draw from a geom.RNG and expose Reseed hooks, so
// qarv.WithSeed keeps whole offload reports byte-identical; offload
// runs reseed the dynamics from the capture seed (or LinkDynamics.Seed
// when nonzero) at the start of every run, exactly as the link RNG is
// rebuilt per run.

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"qarv/internal/geom"
	"qarv/internal/obs"
)

// BandwidthProcess yields a link's serialization capacity per slot —
// the time-varying generalization of LinkConfig.BytesPerSlot. A
// non-positive rate means the link serializes nothing that slot (an
// outage); consumers decide how to realize it (LinkDynamics suspends
// the link, service adapters return zero capacity).
//
// Implementations must be idempotent within a slot (repeated calls with
// the same t return the same value) and are advanced by monotonically
// non-decreasing t, one slot loop per process instance — exactly the
// contract delay.ServiceProcess already imposes. The stateful processes
// here treat a t regression as a restarted slot loop (the same session
// Run again) and reset their chain state while continuing their RNG
// stream. Every implementation in this package also provides
// Service(t) == Bandwidth(t), so it satisfies delay.ServiceProcess
// structurally.
type BandwidthProcess interface {
	// Bandwidth returns the serialization rate (bytes/slot) of slot t.
	Bandwidth(t int) float64
	// Name identifies the process in traces and reports.
	Name() string
}

// Dynamics validation errors.
var (
	ErrBadMarkov  = errors.New("netem: invalid markov bandwidth parameters")
	ErrEmptyTrace = errors.New("netem: bandwidth trace needs at least one point")
	ErrBadTrace   = errors.New("netem: invalid bandwidth trace")
	ErrBadHandoff = errors.New("netem: invalid handoff parameters")
)

// validatable is implemented by processes whose parameters can be
// structurally wrong; LinkDynamics.Validate walks it.
type validatable interface{ Validate() error }

// ---------------------------------------------------------------------------
// ConstantBandwidth
// ---------------------------------------------------------------------------

// ConstantBandwidth is the degenerate process: a fixed rate every slot.
// It exists so static links can flow through the same dynamics plumbing
// (fleet network mixes, sweeps) as the time-varying processes.
type ConstantBandwidth struct {
	// Rate is the serialization capacity, bytes/slot.
	Rate float64
}

// ErrBadConstant reports a non-positive or non-finite constant rate.
var ErrBadConstant = errors.New("netem: constant bandwidth rate must be positive")

// Validate checks the rate, so a forgotten (zero-value) Rate fails at
// construction instead of stalling every slot as a permanent outage.
func (c *ConstantBandwidth) Validate() error {
	if c.Rate <= 0 || math.IsNaN(c.Rate) || math.IsInf(c.Rate, 0) {
		return fmt.Errorf("%w: %v", ErrBadConstant, c.Rate)
	}
	return nil
}

// Bandwidth implements BandwidthProcess.
func (c *ConstantBandwidth) Bandwidth(int) float64 { return c.Rate }

// Service makes ConstantBandwidth a delay.ServiceProcess.
func (c *ConstantBandwidth) Service(t int) float64 { return c.Bandwidth(t) }

// Name implements BandwidthProcess.
func (c *ConstantBandwidth) Name() string { return "constant-bw" }

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
	// GoodRate and BadRate are the two capacity levels (bytes/slot).
	// GoodRate must be positive; BadRate non-negative (0 = outage).
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

// Bandwidth implements BandwidthProcess.
func (m *MarkovBandwidth) Bandwidth(t int) float64 {
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

// Service makes MarkovBandwidth a delay.ServiceProcess.
func (m *MarkovBandwidth) Service(t int) float64 { return m.Bandwidth(t) }

// Name implements BandwidthProcess.
func (m *MarkovBandwidth) Name() string { return "markov-bw" }

// Reseed replaces the chain's RNG and resets it to its start state —
// the hook qarv.WithSeed (and every offload run) uses to keep reports
// byte-identical per seed.
func (m *MarkovBandwidth) Reseed(rng *geom.RNG) {
	m.RNG = rng
	m.init = false
}

// Clone returns a run-isolated copy: chain position and RNG state are
// deep-copied, so a cloned run never advances the original's stream.
// CloneProcess delegates here.
func (m *MarkovBandwidth) Clone() *MarkovBandwidth {
	if m == nil {
		return nil
	}
	c := *m
	c.RNG = m.RNG.Clone()
	return &c
}

// ---------------------------------------------------------------------------
// TraceBandwidth
// ---------------------------------------------------------------------------

// TracePoint is one step of a piecewise-constant bandwidth trace: from
// Slot onward the link serializes at BytesPerSlot, until the next point
// takes over.
type TracePoint struct {
	// Slot is the first slot the rate applies to.
	Slot int `json:"slot"`
	// BytesPerSlot is the serialization rate from Slot on. Zero models
	// an outage segment.
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
// loaders; literals are validated by LinkDynamics.Validate instead.
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
// 1 — the unitless factor form the CLI network classes feed to
// delay.ModulatedService. Hand-written factor patterns whose peak is
// already 1 round-trip unchanged; measured bytes/slot traces become
// fractions of their peak capacity, so the same file drives both an
// offload run's LinkDynamics (absolute) and -net modulation (relative)
// with sensible semantics. An all-zero trace has no peak to normalize
// against and is rejected.
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

// Bandwidth implements BandwidthProcess.
func (tb *TraceBandwidth) Bandwidth(t int) float64 {
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

// Service makes TraceBandwidth a delay.ServiceProcess.
func (tb *TraceBandwidth) Service(t int) float64 { return tb.Bandwidth(t) }

// Name implements BandwidthProcess.
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
	// BaseRate is the nominal cell capacity (bytes/slot) when Base is
	// nil.
	BaseRate float64
	// Base, when non-nil, yields the underlying capacity per slot that
	// the cell scale multiplies.
	Base BandwidthProcess
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
	if v, ok := h.Base.(validatable); ok {
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

// Bandwidth implements BandwidthProcess.
func (h *HandoffBandwidth) Bandwidth(t int) float64 {
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
		base = h.Base.Bandwidth(t)
	}
	return h.scale * base
}

// Service makes HandoffBandwidth a delay.ServiceProcess.
func (h *HandoffBandwidth) Service(t int) float64 { return h.Bandwidth(t) }

// Name implements BandwidthProcess.
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

// Clone returns a run-isolated copy: handoff schedule, cell scale, RNG
// state, and the Base process are all deep-copied, so a cloned run
// never advances the original's streams. CloneProcess delegates here.
func (h *HandoffBandwidth) Clone() *HandoffBandwidth {
	if h == nil {
		return nil
	}
	c := *h
	c.RNG = h.RNG.Clone()
	c.Base = CloneProcess(h.Base)
	return &c
}

// ---------------------------------------------------------------------------
// LinkDynamics
// ---------------------------------------------------------------------------

// LinkDynamics binds a BandwidthProcess to a Link: Apply, called once
// at the top of each slot, reads the slot's rate and retunes the link —
// a positive rate becomes the serialization bandwidth for transmissions
// enqueued from that slot on (already-scheduled deliveries keep their
// schedule, per the SetBandwidth contract), while a non-positive rate
// is an outage: the link is suspended through the end of the slot and
// its last positive rate is kept for when capacity returns.
type LinkDynamics struct {
	// Process yields the per-slot serialization rate.
	Process BandwidthProcess
	// Seed, when nonzero, seeds the process RNGs independently of the
	// offload capture seed (the same override LinkConfig.Seed provides
	// for the link's jitter/loss RNG). Zero derives them from the
	// capture seed, which is what keeps qarv.WithSeed byte-identical.
	Seed uint64
	// Recorder, when non-nil, receives a "netem" flight-recorder event
	// at every rate change Apply drives: "rate" with the new bandwidth,
	// or "outage" (value 0) when the process goes dark. Recording reads
	// only the slot index, so it never perturbs the run.
	Recorder *obs.FlightRecorder

	// lastRate/haveRate dedupe Recorder events to actual changes.
	lastRate float64
	haveRate bool
}

// ErrNilProcess reports a LinkDynamics without a bandwidth process.
var ErrNilProcess = errors.New("netem: link dynamics need a bandwidth process")

// Validate checks the dynamics configuration without touching a link.
func (d *LinkDynamics) Validate() error {
	if d.Process == nil {
		return ErrNilProcess
	}
	if v, ok := d.Process.(validatable); ok {
		return v.Validate()
	}
	return nil
}

// Apply retunes the link for slot t. Call it before observing or
// transmitting in the slot, once per slot.
func (d *LinkDynamics) Apply(l *Link, t int) {
	rate := d.Process.Bandwidth(t)
	if d.Recorder != nil && (!d.haveRate || rate != d.lastRate) {
		name := "rate"
		if rate <= 0 {
			name = "outage"
		}
		d.Recorder.Event(int64(t), "netem", name, -1, rate)
		d.lastRate, d.haveRate = rate, true
	}
	if rate > 0 {
		// rate was validated finite; SetBandwidth cannot fail here.
		_ = l.SetBandwidth(rate)
		return
	}
	// Outage: nothing serializes this slot, and the dead time
	// accumulates into the busy horizon even when a standing queue
	// already extends past it (Link.Stall) — so every outage slot costs
	// future enqueues exactly one slot. Deliveries already returned
	// keep their schedules, per the never-revise contract.
	l.Stall(float64(t), 1)
}

// Reseed re-derives every stochastic component of the process chain
// from rng (stateless processes are left untouched), resetting chain
// state so a fresh run replays the same dynamics.
func (d *LinkDynamics) Reseed(rng *geom.RNG) {
	d.haveRate = false
	if r, ok := d.Process.(interface{ Reseed(*geom.RNG) }); ok {
		r.Reseed(rng.Split())
	}
}

// Clone returns a deep copy whose process state (Markov chain position,
// handoff schedule, RNG) is independent of the receiver. Offload runs
// clone the configured dynamics before reseeding, so the caller's
// structs are never mutated and the same Session can Run concurrently.
func (d *LinkDynamics) Clone() *LinkDynamics {
	if d == nil {
		return nil
	}
	c := *d
	c.Process = CloneProcess(d.Process)
	return &c
}

// CloneProcess deep-copies a bandwidth process so per-run state never
// leaks between runs. The stochastic built-ins (MarkovBandwidth,
// HandoffBandwidth) delegate to their Clone methods, which deep-copy
// RNG state too; the stateless ones copy by value (trace points are
// immutable and stay shared). A custom process is copied through its
// CloneProcess method when it has one, and otherwise returned as-is —
// such a process is then shared between runs, so its owner must not
// run it concurrently.
func CloneProcess(p BandwidthProcess) BandwidthProcess {
	switch x := p.(type) {
	case nil:
		return nil
	case *ConstantBandwidth:
		c := *x
		return &c
	case *MarkovBandwidth:
		return x.Clone()
	case *TraceBandwidth:
		c := *x
		return &c
	case *HandoffBandwidth:
		return x.Clone()
	default:
		if cl, ok := p.(interface{ CloneProcess() BandwidthProcess }); ok {
			return cl.CloneProcess()
		}
		return p
	}
}

// ---------------------------------------------------------------------------
// Shared network-class presets
// ---------------------------------------------------------------------------
//
// The CLIs (qarvsim -net, qarvfleet -net) and examples share these
// default regimes as *factor* processes: rates are unitless multipliers
// around 1 meant for delay.ModulatedService composition with whatever
// service or bandwidth a scenario calibrated. One definition here keeps
// the two commands from drifting apart.

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

// Name labels the dynamics in reports ("static" when unset).
func (d *LinkDynamics) Name() string {
	if d == nil || d.Process == nil {
		return "static"
	}
	return d.Process.Name()
}

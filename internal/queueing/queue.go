// Package queueing models the delay side of the paper: the backlog process
// Q(t) of equation (2) (work that has arrived but not yet been visualized),
// a timestamped FIFO frame queue for per-frame latency accounting, arrival
// processes, and a stability detector that classifies backlog trajectories
// the way Fig. 2(a) does (diverging / converging / stabilized).
package queueing

import (
	"errors"
	"math"

	"qarv/internal/geom"
	"qarv/internal/stats"
)

// Backlog is the scalar work backlog Q(t) evolving by the Lindley
// recursion Q(t+1) = max(Q(t) + a(t) − b(t), 0). The zero value is an
// empty queue.
type Backlog struct {
	level   float64
	arrived float64
	served  float64
	dropped float64
	maxLen  float64 // 0 = unbounded
}

// NewBoundedBacklog returns a backlog that drops arrivals beyond maxLen
// (queue overflow, the failure mode the paper attributes to max-Depth).
// maxLen ≤ 0 means unbounded.
func NewBoundedBacklog(maxLen float64) *Backlog {
	return &Backlog{maxLen: maxLen}
}

// Level returns Q(t).
func (b *Backlog) Level() float64 { return b.level }

// Step applies one slot: a work units arrive, up to s units are served.
// It returns the work actually served this slot. Negative inputs are
// treated as zero.
func (b *Backlog) Step(a, s float64) float64 {
	if a < 0 {
		a = 0
	}
	if s < 0 {
		s = 0
	}
	if b.maxLen > 0 && b.level+a > b.maxLen {
		admitted := b.maxLen - b.level
		if admitted < 0 {
			admitted = 0
		}
		b.dropped += a - admitted
		a = admitted
	}
	b.arrived += a
	b.level += a
	served := math.Min(b.level, s)
	b.level -= served
	b.served += served
	return served
}

// TotalDropped returns cumulative overflow-dropped work.
func (b *Backlog) TotalDropped() float64 { return b.dropped }

// ConservationError returns |arrived − served − level|; it must be ~0 at
// all times (the flow-conservation invariant under property test).
func (b *Backlog) ConservationError() float64 {
	return math.Abs(b.arrived - b.served - b.level)
}

// Frame is one AR frame's rendering job in the FIFO queue.
type Frame struct {
	ID         int
	Work       float64 // total work units to visualize the frame
	Remaining  float64 // work still unserved
	EnqueuedAt int     // slot of arrival
	Depth      int     // octree depth the controller chose for the frame
}

// Completed records a frame that finished service.
type Completed struct {
	Frame
	CompletedAt int
	// Sojourn is the queueing+service delay in slots.
	Sojourn int
}

// FrameQueue is a FIFO of frames with partial service: a slot's capacity
// drains the head frame first and rolls over to later frames.
//
// Completed frames are released eagerly: the queue keeps a head index
// into its backing slice and compacts once the dead prefix dominates, so
// memory stays proportional to the frames in flight, not to the run
// length. Serve reports completions in a buffer the queue reuses, so a
// slot loop over a warm queue allocates nothing.
type FrameQueue struct {
	frames []Frame // frames[head:] are live
	head   int
	nextID int
	done   []Completed // Serve's result buffer
}

// Reset empties the queue and restarts frame IDs at 0, as for a zero
// FrameQueue, but keeps both buffers for the next run.
func (q *FrameQueue) Reset() {
	q.frames, q.head, q.nextID, q.done = q.frames[:0], 0, 0, q.done[:0]
}

// compactAfter is the dead-prefix length beyond which Serve compacts the
// backing slice (once the prefix also outweighs the live frames).
const compactAfter = 64

// Len returns the number of queued (incl. partially served) frames.
func (q *FrameQueue) Len() int { return len(q.frames) - q.head }

// WorkBacklog returns the total unserved work across queued frames; this
// equals the scalar Q(t) when both are driven identically.
func (q *FrameQueue) WorkBacklog() float64 {
	var sum float64
	for _, f := range q.frames[q.head:] {
		sum += f.Remaining
	}
	return sum
}

// Push enqueues a frame of the given work at slot now and returns its ID.
func (q *FrameQueue) Push(work float64, depth, now int) int {
	if work < 0 {
		work = 0
	}
	id := q.nextID
	q.nextID++
	var f *Frame
	q.frames, f = appendSlot(q.frames)
	f.ID, f.Work, f.Remaining, f.EnqueuedAt, f.Depth = id, work, work, now, depth
	return id
}

// Serve applies capacity work units at slot now, FIFO with partial
// service, and returns the frames completed this slot, or nil when none
// did. A frame with no work left completes even at zero capacity, so a
// zero-work frame completes in the slot it arrives. Negative or NaN
// capacity serves nothing. The returned slice aliases the queue's
// buffer: it is valid only until the next Serve or Reset, so callers
// must copy what they keep.
func (q *FrameQueue) Serve(capacity float64, now int) []Completed {
	if !(capacity > 0) {
		capacity = 0
	}
	done := q.done[:0]
	for q.head < len(q.frames) {
		head := &q.frames[q.head]
		if head.Remaining > capacity {
			head.Remaining -= capacity
			break
		}
		capacity -= head.Remaining
		var c *Completed
		done, c = appendSlot(done)
		c.ID, c.Work, c.Remaining, c.EnqueuedAt, c.Depth = head.ID, head.Work, 0, head.EnqueuedAt, head.Depth
		c.CompletedAt, c.Sojourn = now, now-head.EnqueuedAt
		q.head++
	}
	q.compact()
	q.done = done
	if len(done) == 0 {
		return nil
	}
	return done
}

// appendSlot lengthens s by one element and returns it for the caller
// to fill in place. Push and Serve write their frames field by field
// this way, because building a struct and copying it whole, or copying
// *head, reloads what the slot's stores just wrote and stalls on it. A
// reused slot keeps its old contents, so the caller sets every field;
// TestServeCarriesEveryFrameField fails when a field is added that
// they miss.
func appendSlot[T any](s []T) ([]T, *T) {
	if len(s) == cap(s) {
		var zero T
		s = append(s, zero)
	} else {
		s = s[:len(s)+1]
	}
	return s, &s[len(s)-1]
}

// compact copies live frames to the front of the backing slice once the
// served prefix dominates it, releasing completed frames for reuse by
// subsequent pushes (flat memory over arbitrarily long runs).
func (q *FrameQueue) compact() {
	if q.head > compactAfter && q.head*2 >= len(q.frames) {
		n := copy(q.frames, q.frames[q.head:])
		q.frames = q.frames[:n]
		q.head = 0
	}
}

// DropTail removes up to amount work from the newest frames (tail first)
// — the frame-level mirror of a bounded backlog's overflow drop, which
// rejects the latest arrivals. A frame whose remaining work hits zero is
// removed outright and counted (it will never complete); a partially
// trimmed frame stays queued with reduced remaining work. DropTail
// returns the whole frames dropped and the work actually removed (less
// than amount only when the queue held less).
func (q *FrameQueue) DropTail(amount float64) (frames int, removed float64) {
	for amount > 0 && q.head < len(q.frames) {
		tail := &q.frames[len(q.frames)-1]
		if tail.Remaining > amount {
			tail.Remaining -= amount
			removed += amount
			return frames, removed
		}
		amount -= tail.Remaining
		removed += tail.Remaining
		q.frames = q.frames[:len(q.frames)-1]
		frames++
	}
	return frames, removed
}

// ArrivalProcess yields the number of frames arriving in each slot.
type ArrivalProcess interface {
	// Frames returns how many frames arrive at slot t.
	Frames(t int) int
	// Name identifies the process in traces.
	Name() string
}

// DeterministicArrivals delivers a fixed number of frames per slot — the
// paper's setting (one AR frame per unit time).
type DeterministicArrivals struct {
	PerSlot int
}

var _ ArrivalProcess = (*DeterministicArrivals)(nil)

// Frames implements ArrivalProcess.
func (a *DeterministicArrivals) Frames(int) int {
	if a.PerSlot < 0 {
		return 0
	}
	return a.PerSlot
}

// Name implements ArrivalProcess.
func (a *DeterministicArrivals) Name() string { return "deterministic" }

// PoissonArrivals delivers a Poisson-distributed number of frames per slot.
type PoissonArrivals struct {
	Mean float64
	RNG  *geom.RNG
}

var _ ArrivalProcess = (*PoissonArrivals)(nil)

// Frames implements ArrivalProcess.
func (a *PoissonArrivals) Frames(int) int {
	if a.RNG == nil {
		return int(math.Round(a.Mean))
	}
	return a.RNG.Poisson(a.Mean)
}

// Name implements ArrivalProcess.
func (a *PoissonArrivals) Name() string { return "poisson" }

// Reseed replaces the process's RNG — the hook qarv.WithSeed uses to
// drive every stochastic session component from one session seed.
func (a *PoissonArrivals) Reseed(rng *geom.RNG) { a.RNG = rng }

// Clone returns a run-isolated copy: the RNG state is deep-copied, so
// a cloned run never advances (or races) the original's stream.
func (a *PoissonArrivals) Clone() *PoissonArrivals {
	if a == nil {
		return nil
	}
	c := *a
	c.RNG = a.RNG.Clone()
	return &c
}

// OnOffArrivals alternates between bursts of PerSlotOn frames for OnSlots
// and silence for OffSlots — bursty telepresence traffic.
type OnOffArrivals struct {
	OnSlots, OffSlots int
	PerSlotOn         int
}

var _ ArrivalProcess = (*OnOffArrivals)(nil)

// Frames implements ArrivalProcess.
func (a *OnOffArrivals) Frames(t int) int {
	period := a.OnSlots + a.OffSlots
	if period <= 0 {
		return a.PerSlotOn
	}
	if t%period < a.OnSlots {
		return a.PerSlotOn
	}
	return 0
}

// Name implements ArrivalProcess.
func (a *OnOffArrivals) Name() string { return "on-off" }

// Verdict classifies a backlog trajectory.
type Verdict int

// Stability verdicts mirroring Fig. 2(a)'s three behaviours.
const (
	// VerdictDiverging: backlog grows without bound (paper: only
	// max-Depth, "queue overflow after a certain time").
	VerdictDiverging Verdict = iota + 1
	// VerdictConverged: backlog drains to ~0 (paper: only min-Depth).
	VerdictConverged
	// VerdictStabilized: backlog bounded away from both 0 and divergence
	// (paper: the proposed scheme after its knee).
	VerdictStabilized
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case VerdictDiverging:
		return "diverging"
	case VerdictConverged:
		return "converged"
	case VerdictStabilized:
		return "stabilized"
	default:
		return "unknown"
	}
}

// ErrTooShort is returned when a trajectory has too few samples to judge.
var ErrTooShort = errors.New("queueing: trajectory too short to classify")

// ClassifyTrajectory inspects the tail (last half) of a backlog series:
// a sustained positive slope relative to the mean level ⇒ diverging; a
// tail mean below convergeTol·peak ⇒ converged; otherwise stabilized.
func ClassifyTrajectory(series []float64, convergeTol float64) (Verdict, error) {
	if len(series) < 8 {
		return 0, ErrTooShort
	}
	if convergeTol <= 0 {
		convergeTol = 0.02
	}
	tail := series[len(series)/2:]
	peak := 0.0
	var tailStats stats.Running
	for _, v := range tail {
		tailStats.Add(v)
	}
	for _, v := range series {
		if v > peak {
			peak = v
		}
	}
	if peak == 0 {
		return VerdictConverged, nil
	}
	if tailStats.Mean() <= convergeTol*peak {
		return VerdictConverged, nil
	}
	// Growth over the tail window relative to its own mean level.
	if growth := indexSlope(tail) * float64(len(tail)); growth > 0.5*tailStats.Mean() {
		return VerdictDiverging, nil
	}
	return VerdictStabilized, nil
}

// indexSlope is the least-squares slope of ys against x = 0..len(ys)−1,
// for at least two values. It forms stats.OLS's sums in OLS's order, so
// the slope is OLS's bit for bit, without an x slice.
func indexSlope(ys []float64) float64 {
	n := float64(len(ys))
	var sx, sy float64
	for i, y := range ys {
		sx += float64(i)
		sy += y
	}
	mx, my := sx/n, sy/n
	var sxx, sxy float64
	for i, y := range ys {
		dx := float64(i) - mx
		sxx += dx * dx
		sxy += dx * (y - my)
	}
	return sxy / sxx
}

// LittleEstimator accumulates the Little's-law quantities over a run:
// average queue length L, arrival rate λ (frames/slot), and average
// sojourn W (slots), so L ≈ λ·W can be verified.
type LittleEstimator struct {
	qSum     float64
	slots    int
	arrivals int
	sojourn  float64
	finished int
}

// ObserveSlot records the queue length of one slot and its frame arrivals.
func (l *LittleEstimator) ObserveSlot(queueLen float64, arrivals int) {
	l.qSum += queueLen
	l.slots++
	l.arrivals += arrivals
}

// ObserveCompletion records a finished frame's sojourn time.
func (l *LittleEstimator) ObserveCompletion(sojournSlots int) {
	l.sojourn += float64(sojournSlots)
	l.finished++
}

// L returns the time-average queue length.
func (l *LittleEstimator) L() float64 {
	if l.slots == 0 {
		return 0
	}
	return l.qSum / float64(l.slots)
}

// Lambda returns the average arrival rate (frames/slot).
func (l *LittleEstimator) Lambda() float64 {
	if l.slots == 0 {
		return 0
	}
	return float64(l.arrivals) / float64(l.slots)
}

// W returns the average sojourn time (slots/frame).
func (l *LittleEstimator) W() float64 {
	if l.finished == 0 {
		return 0
	}
	return l.sojourn / float64(l.finished)
}

// LawGap returns |L − λ·W| / max(L, ε): the relative Little's-law residual.
func (l *LittleEstimator) LawGap() float64 {
	lhs := l.L()
	rhs := l.Lambda() * l.W()
	denom := math.Max(lhs, 1e-9)
	return math.Abs(lhs-rhs) / denom
}

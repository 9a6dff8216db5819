package stats

import (
	"errors"
	"fmt"
	"math"
)

// The fleet engine cannot retain per-frame trajectories — a million
// sessions times thousands of slots would be hundreds of gigabytes — so
// shards accumulate distributions in two fixed-memory structures defined
// here: QuantileSketch (a mergeable, relative-error-bounded quantile
// estimator over non-negative observations) and Decimator (a
// constant-size, uniform-stride downsampler that preserves a
// trajectory's shape for stability classification).

// sketch tuning constants.
const (
	// sketchMinValue is the smallest distinguishable observation; values
	// in [0, sketchMinValue) share the exact "zero" bucket. It bounds the
	// lowest bucket index, so the sketch's memory does not depend on how
	// many observations arrive.
	sketchMinValue = 1e-6
	// sketchMaxBuckets caps the live (non-empty) logarithmic bucket
	// count. At the default 1% accuracy the indexable range spans ~18
	// orders of magnitude before the cap engages, so in practice it never
	// does; if it ever would, the lowest buckets collapse into the zero
	// bucket (degrading accuracy at the low quantiles only).
	sketchMaxBuckets = 4096
	// sketchMaxSpan caps the index span from the lowest live bucket to
	// the highest, folding the lowest into the zero bucket the same way.
	// The counts are stored densely, so it is what bounds memory: at
	// most sketchMaxSpan counts, 512 KB, at any accuracy. At 1% the
	// whole range from sketchMinValue to math.MaxFloat64 is about 36k
	// buckets and never engages it; below about 0.55% accuracy, an
	// observed range that wide does.
	sketchMaxSpan = 1 << 16
	// sketchMinAccuracy is the finest accuracy a sketch takes; finer
	// requests are raised to it. Bucket indices then stay within ±4e14,
	// far inside int, and a float64 cannot tell values much closer
	// apart anyway.
	sketchMinAccuracy = 1e-12
	// DefaultSketchAccuracy is the relative error bound used when a
	// caller passes a non-positive accuracy.
	DefaultSketchAccuracy = 0.01
)

// QuantileSketch is a streaming quantile estimator over non-negative
// observations with a guaranteed relative error bound: Quantile(q)
// returns a value within α·x of the true empirical q-quantile x
// (DDSketch-style logarithmic buckets; see Masson et al., "DDSketch: A
// Fast and Fully-Mergeable Quantile Sketch with Relative-Error
// Guarantees"). Two sketches built with the same accuracy merge
// losslessly, so per-shard sketches combine into one fleet-wide
// distribution with no additional error. Negative observations are
// clamped to zero. The zero value is NOT ready to use; construct with
// NewQuantileSketch.
//
// Bucket counts live in one dense ring buffer over the index span of
// the live buckets, which doubles as that span grows. Memory is
// therefore O(index span) = O(log(max/min)/α), independent of the
// number of observations, and at most sketchMaxSpan counts (512 KB):
// a few hundred counts for the few decades a fleet metric covers at
// 1% accuracy, and at most a 64Ki ring for the ~36k buckets from 1e-6
// to math.MaxFloat64.
type QuantileSketch struct {
	alpha     float64 // guaranteed relative accuracy
	gamma     float64 // bucket base (1+alpha)/(1-alpha)
	lgamma    float64 // ln(gamma), cached for indexing
	invLgamma float64 // 1/lgamma, for the fast index
	slack     float64 // logApproxMargin in index units, for the fast index

	zero uint64 // observations in [0, sketchMinValue)
	// counts is a ring: bucket i, covering (gamma^(i-1), gamma^i], is
	// counts[i&(len(counts)-1)]. Its length is a power of two no less
	// than hi-lo+1, and entries outside the window [lo, hi] are zero.
	counts []uint64
	lo, hi int // lowest and highest live bucket; lo > hi when none is
	live   int // non-zero entries of counts
	count  uint64
	sum    float64
	min    float64
	max    float64
}

// NewQuantileSketch returns an empty sketch with the given relative
// accuracy α ∈ (0, 1); non-positive values take DefaultSketchAccuracy,
// positive values below sketchMinAccuracy are raised to it, and values
// ≥ 1 are clamped to 0.5.
func NewQuantileSketch(accuracy float64) *QuantileSketch {
	if accuracy <= 0 {
		accuracy = DefaultSketchAccuracy
	}
	if accuracy < sketchMinAccuracy {
		accuracy = sketchMinAccuracy
	}
	if accuracy >= 1 {
		accuracy = 0.5
	}
	gamma := (1 + accuracy) / (1 - accuracy)
	s := &QuantileSketch{
		alpha:     accuracy,
		gamma:     gamma,
		lgamma:    math.Log(gamma),
		invLgamma: 1 / math.Log(gamma),
	}
	s.slack = logApproxMargin * s.invLgamma
	s.lo, s.hi = 1, 0
	return s
}

// Add incorporates one observation (negatives are clamped to zero, NaN
// is ignored).
func (s *QuantileSketch) Add(x float64) { s.AddN(x, 1) }

// AddN incorporates n observations of x at once. The count, minimum,
// maximum and every bucket end as n calls of Add(x) would leave them,
// in any interleaving with other adds. The running sum grows by
// float64(n)·x in one step, which is what the n calls add whenever the
// sum stays exact: for integer x, with every partial sum below 2^53.
// Callers that keep counts per integer value (or per value of a small
// set) fold them in with one AddN each instead of one Add per
// observation.
func (s *QuantileSketch) AddN(x float64, n uint64) {
	if n == 0 || math.IsNaN(x) {
		return
	}
	if x < 0 {
		x = 0
	}
	if s.count == 0 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	s.count += n
	s.sum += float64(n) * x
	if x < sketchMinValue {
		s.zero += n
		return
	}
	i := s.index(x)
	if k := i & (len(s.counts) - 1); i >= s.lo && i <= s.hi && s.counts[k] != 0 {
		s.counts[k] += n // the common case: a live bucket
		return
	}
	s.insert(i, n)
}

// insert adds n observations to bucket i, which may fold the lowest
// live bucket (possibly i itself) into the zero bucket.
func (s *QuantileSketch) insert(i int, n uint64) {
	if (i < s.lo || i > s.hi) && !s.extend(i) {
		s.zero += n
		return
	}
	k := i & (len(s.counts) - 1)
	if s.counts[k] == 0 {
		s.live++
	}
	s.counts[k] += n
	if s.live > sketchMaxBuckets {
		s.collapseLowest()
	}
}

// exactIndex is the bucket index ceil(ln(x)/ln(gamma)) of x ≥
// sketchMinValue, the definition index reproduces bit for bit.
func (s *QuantileSketch) exactIndex(x float64) int {
	return int(math.Ceil(math.Log(x) / s.lgamma))
}

// index returns exactIndex(x) for x ≥ sketchMinValue without calling
// math.Log on the common path. It evaluates ln(x) from x's exponent and
// a table-plus-series logarithm of its mantissa (logApprox), whose
// error against math.Log stays far inside logApproxMargin. The quotient
// by ln(gamma) then has the same ceiling as the exact one unless it
// lies within the margin, plus the divisions' rounding, of an integer;
// only then does index fall back to exactIndex. +Inf takes the bucket
// of math.MaxFloat64.
func (s *QuantileSketch) index(x float64) int {
	if x > math.MaxFloat64 {
		return s.exactIndex(math.MaxFloat64)
	}
	q := logApprox(x) * s.invLgamma
	i := int(q) // truncation: ceil(q) for q ≤ 0, and floor(q) for q > 0
	if q > float64(i) {
		i++
	}
	// d bounds |q − math.Log(x)/lgamma|: the logarithms' gap (see
	// logApproxMargin) scaled by invLgamma, which also absorbs the
	// quotients' own rounding of a few 2^-53·|q|.
	if d := s.slack + math.Abs(q)*0x1p-45; q-d <= float64(i-1) || q+d > float64(i) {
		return s.exactIndex(x)
	}
	return i
}

// logTableBits is how many leading mantissa bits select logTable's cell.
const logTableBits = 8

// logApproxMargin, plus 2^-45·|ln x|, bounds |logApprox(x) −
// math.Log(x)| with a wide berth: the series' truncation error is below
// 6e-15, and rounding in either function costs a few ulps of ln(x).
// TestSketchIndexMatchesExact pins the berth.
const logApproxMargin = 1e-12

// logTable holds, per cell j of the mantissa range [1, 2), the cell's
// centre c = 1 + (j+½)/2^logTableBits as ln(c) and 1/c.
var logTable = func() (t [1 << logTableBits]struct{ log, inv float64 }) {
	for j := range t {
		c := 1 + (float64(j)+0.5)/(1<<logTableBits)
		t[j].log, t[j].inv = math.Log(c), 1/c
	}
	return t
}()

// logApprox returns ln(x) for a positive, finite, normal x to within
// logApproxMargin. With x = m·2^e and c the centre of m's logTable
// cell, ln(x) = e·ln2 + ln(c) + ln(1+r) for r = (m−c)/c, |r| ≤ 2^-9,
// and ln(1+r) is summed to its r⁴ term.
func logApprox(x float64) float64 {
	const (
		shift = 52 - logTableBits
		half  = 1 << (shift - 1)
	)
	b := math.Float64bits(x)
	e := int(b>>52) - 1023
	cell := &logTable[b>>shift&(1<<logTableBits-1)]
	// m − c is exact: the mantissa bits below the cell index, less half
	// a cell, as an integer count of 2^-52.
	r := float64(int64(b&(1<<shift-1))-half) * 0x1p-52 * cell.inv
	return float64(e)*math.Ln2 + cell.log + r*(1-r*(0.5-r*(1.0/3-r*0.25)))
}

// extend widens the window [lo, hi] to take bucket i, folding the
// lowest live buckets into the zero bucket while the span would exceed
// sketchMaxSpan. It reports false, changing nothing, when bucket i
// would itself be folded: it lies below every live bucket while
// sketchMaxBuckets are live or while the highest is too far above it.
func (s *QuantileSketch) extend(i int) bool {
	lo, hi := i, i
	if s.live > 0 && i < s.lo {
		if s.live >= sketchMaxBuckets || s.hi-i >= sketchMaxSpan {
			return false
		}
		hi = s.hi
	} else {
		for s.live > 0 && i-s.lo >= sketchMaxSpan {
			s.collapseLowest()
		}
		if s.live > 0 {
			lo = s.lo
		}
	}
	if hi-lo >= len(s.counts) {
		s.grow(hi - lo + 1)
	}
	s.lo, s.hi = lo, hi
	return true
}

// grow replaces the ring with one of at least twice its length, and at
// least span ≤ sketchMaxSpan, moving the live window [lo, hi] over.
func (s *QuantileSketch) grow(span int) {
	n := max(64, 2*len(s.counts))
	for n < span {
		n *= 2
	}
	ring := make([]uint64, min(n, sketchMaxSpan))
	if s.live > 0 {
		for i := s.lo; i <= s.hi; i++ {
			ring[i&(len(ring)-1)] = s.counts[i&(len(s.counts)-1)]
		}
	}
	s.counts = ring
}

// collapseLowest folds the lowest live bucket into the zero bucket,
// sacrificing low-quantile accuracy to hold the caps, and moves lo up
// to the next live bucket. The caller resets the window when none is
// left.
func (s *QuantileSketch) collapseLowest() {
	mask := len(s.counts) - 1
	s.zero += s.counts[s.lo&mask]
	s.counts[s.lo&mask] = 0
	if s.live--; s.live == 0 {
		return
	}
	for s.lo++; s.counts[s.lo&mask] == 0; s.lo++ {
	}
}

// Count returns the number of observations.
func (s *QuantileSketch) Count() uint64 { return s.count }

// Mean returns the exact sample mean (0 when empty).
func (s *QuantileSketch) Mean() float64 {
	if s.count == 0 {
		return 0
	}
	return s.sum / float64(s.count)
}

// Min returns the exact smallest observation (0 when empty).
func (s *QuantileSketch) Min() float64 { return s.min }

// Max returns the exact largest observation (0 when empty).
func (s *QuantileSketch) Max() float64 { return s.max }

// Quantile returns an estimate of the q-quantile (q ∈ [0,1], nearest
// rank) within the sketch's relative accuracy of the true value. It
// returns 0 on an empty sketch; q outside [0,1] is clamped.
func (s *QuantileSketch) Quantile(q float64) float64 {
	if s.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Nearest-rank over 0-indexed order statistics.
	rank := uint64(math.Ceil(q * float64(s.count-1)))
	if rank < s.zero {
		return 0
	}
	cum := s.zero
	mask := len(s.counts) - 1
	for i := s.lo; i <= s.hi; i++ {
		cum += s.counts[i&mask]
		if rank < cum {
			// Midpoint of (gamma^(i-1), gamma^i] in relative terms:
			// 2·gamma^i/(gamma+1) is within alpha of every value in the
			// bucket, clamped into the exact observed range.
			est := 2 * math.Pow(s.gamma, float64(i)) / (s.gamma + 1)
			if est < s.min {
				est = s.min
			}
			if est > s.max {
				est = s.max
			}
			return est
		}
	}
	return s.max
}

// ErrSketchMismatch reports an attempt to merge sketches built with
// different accuracies (their bucket geometries are incompatible).
var ErrSketchMismatch = errors.New("stats: cannot merge quantile sketches with different accuracies")

// Merge folds o into s losslessly. Both sketches must have been built
// with the same accuracy; o is left unchanged.
func (s *QuantileSketch) Merge(o *QuantileSketch) error {
	if o == nil || o.count == 0 {
		return nil
	}
	if o.alpha != s.alpha {
		return fmt.Errorf("%w: %v vs %v", ErrSketchMismatch, s.alpha, o.alpha)
	}
	if s.count == 0 {
		s.min, s.max = o.min, o.max
	} else {
		if o.min < s.min {
			s.min = o.min
		}
		if o.max > s.max {
			s.max = o.max
		}
	}
	s.count += o.count
	s.sum += o.sum
	s.zero += o.zero
	// Size the ring for both windows at once, when the span cap allows.
	lo, hi := o.lo, o.hi
	if s.live > 0 {
		lo, hi = min(lo, s.lo), max(hi, s.hi)
	}
	if span := hi - lo + 1; o.live > 0 && span > len(s.counts) && span <= sketchMaxSpan {
		s.grow(span)
	}
	// Inserting o's buckets in ascending order folds the same buckets
	// as merging them all and then folding the lowest: the caps keep
	// the highest buckets either way.
	mask := len(o.counts) - 1
	for i := o.lo; i <= o.hi; i++ {
		if n := o.counts[i&mask]; n != 0 {
			s.insert(i, n)
		}
	}
	return nil
}

// BucketCount returns the number of live logarithmic buckets — the
// sketch's bucket count under the sketchMaxBuckets cap (exposed for the
// flat-memory property tests).
//
//qarv:allow unreached (a) oracle: stats and fleet tests pin the sketch memory cap with it
func (s *QuantileSketch) BucketCount() int { return s.live }

// Decimator retains a bounded, uniform-stride subsample of a series:
// every stride-th value is kept, and when the buffer fills the stride
// doubles and every other retained sample is discarded. The result
// preserves the trajectory's coarse shape (level, slope, knees) in at
// most Cap samples regardless of series length, which is exactly what
// queueing.ClassifyTrajectory needs from a backlog series whose full
// form the fleet engine cannot afford to keep.
type Decimator struct {
	cap    int
	stride int
	n      int // total values observed
	// skip counts the values still to pass before the next kept one: a
	// countdown that keeps exactly the values with n%stride == 0
	// without dividing per value.
	skip    int
	samples []float64
}

// NewDecimator returns a decimator keeping at most capacity samples
// (minimum 16, which non-positive and smaller values are raised to).
func NewDecimator(capacity int) *Decimator {
	if capacity < 16 {
		capacity = 16
	}
	return &Decimator{cap: capacity, stride: 1}
}

// Add observes the next value of the series.
func (d *Decimator) Add(x float64) {
	if d.skip == 0 {
		d.samples = append(d.samples, x)
		d.skip = d.stride
		if len(d.samples) >= d.cap {
			// Halve: keep samples at even positions, doubling the stride.
			half := (len(d.samples) + 1) / 2
			for i := 0; i < half; i++ {
				d.samples[i] = d.samples[2*i]
			}
			d.samples = d.samples[:half]
			d.stride *= 2
			// Re-arm for the next multiple of the doubled stride.
			d.skip = d.stride - d.n%d.stride
		}
	}
	d.skip--
	d.n++
}

// Samples returns the retained subsample in series order. The slice
// aliases the decimator's buffer; callers must not retain it across
// further Adds.
func (d *Decimator) Samples() []float64 { return d.samples }

// Count returns how many values have been observed in total.
func (d *Decimator) Count() int { return d.n }

// Reset clears the decimator for reuse without reallocating.
func (d *Decimator) Reset() {
	d.stride = 1
	d.n, d.skip = 0, 0
	d.samples = d.samples[:0]
}

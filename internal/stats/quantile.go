package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
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
	// in [0, sketchMinValue) share the exact "zero" bucket. Together with
	// sketchMaxBuckets it bounds the sketch's memory regardless of how
	// many observations arrive.
	sketchMinValue = 1e-6
	// sketchMaxBuckets caps the logarithmic bucket count. At the default
	// 1% accuracy the indexable range spans ~18 orders of magnitude
	// before the cap engages, so in practice it never does; if it ever
	// would, the lowest buckets collapse into the zero bucket (degrading
	// accuracy at the low quantiles only).
	sketchMaxBuckets = 4096
	// DefaultSketchAccuracy is the relative error bound used when a
	// caller passes a non-positive accuracy.
	DefaultSketchAccuracy = 0.01
)

// QuantileSketch is a streaming quantile estimator over non-negative
// observations with a guaranteed relative error bound: Quantile(q)
// returns a value within α·x of the true empirical q-quantile x
// (DDSketch-style logarithmic buckets; see Masson et al., "DDSketch: A
// Fast and Fully-Mergeable Quantile Sketch with Relative-Error
// Guarantees"). Memory is O(log(max/min)/α) — independent of the number
// of observations — and two sketches built with the same accuracy merge
// losslessly, so per-shard sketches combine into one fleet-wide
// distribution with no additional error. Negative observations are
// clamped to zero. The zero value is NOT ready to use; construct with
// NewQuantileSketch.
type QuantileSketch struct {
	alpha  float64 // guaranteed relative accuracy
	gamma  float64 // bucket base (1+alpha)/(1-alpha)
	lgamma float64 // ln(gamma), cached for indexing

	zero    uint64         // observations in [0, sketchMinValue)
	buckets map[int]uint64 // index i covers (gamma^(i-1), gamma^i]
	count   uint64
	sum     float64
	min     float64
	max     float64
}

// NewQuantileSketch returns an empty sketch with the given relative
// accuracy α ∈ (0, 1); non-positive values take DefaultSketchAccuracy
// and values ≥ 1 are clamped to 0.5.
func NewQuantileSketch(accuracy float64) *QuantileSketch {
	if accuracy <= 0 {
		accuracy = DefaultSketchAccuracy
	}
	if accuracy >= 1 {
		accuracy = 0.5
	}
	gamma := (1 + accuracy) / (1 - accuracy)
	return &QuantileSketch{
		alpha:   accuracy,
		gamma:   gamma,
		lgamma:  math.Log(gamma),
		buckets: make(map[int]uint64),
	}
}

// Add incorporates one observation (negatives are clamped to zero, NaN
// is ignored).
func (s *QuantileSketch) Add(x float64) {
	if math.IsNaN(x) {
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
	s.count++
	s.sum += x
	if x < sketchMinValue {
		s.zero++
		return
	}
	i := int(math.Ceil(math.Log(x) / s.lgamma))
	s.buckets[i]++
	if len(s.buckets) > sketchMaxBuckets {
		s.collapseLowest()
	}
}

// collapseLowest folds the smallest bucket into the zero bucket,
// sacrificing low-quantile accuracy to hold the memory cap.
func (s *QuantileSketch) collapseLowest() {
	lowest, first := 0, true
	for i := range s.buckets {
		if first || i < lowest {
			lowest, first = i, false
		}
	}
	s.zero += s.buckets[lowest]
	delete(s.buckets, lowest)
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
	keys := make([]int, 0, len(s.buckets))
	for i := range s.buckets {
		keys = append(keys, i)
	}
	sort.Ints(keys)
	cum := s.zero
	for _, i := range keys {
		cum += s.buckets[i]
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
	for i, n := range o.buckets {
		s.buckets[i] += n
	}
	for len(s.buckets) > sketchMaxBuckets {
		s.collapseLowest()
	}
	return nil
}

// BucketCount returns the number of live logarithmic buckets — the
// sketch's memory footprint in O(1)-sized cells (exposed for the
// flat-memory property tests).
func (s *QuantileSketch) BucketCount() int { return len(s.buckets) }

// Decimator retains a bounded, uniform-stride subsample of a series:
// every stride-th value is kept, and when the buffer fills the stride
// doubles and every other retained sample is discarded. The result
// preserves the trajectory's coarse shape (level, slope, knees) in at
// most Cap samples regardless of series length, which is exactly what
// queueing.ClassifyTrajectory needs from a backlog series whose full
// form the fleet engine cannot afford to keep.
type Decimator struct {
	cap     int
	stride  int
	n       int // total values observed
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
	if d.n%d.stride == 0 {
		d.samples = append(d.samples, x)
		if len(d.samples) >= d.cap {
			// Halve: keep samples at even positions, doubling the stride.
			half := (len(d.samples) + 1) / 2
			for i := 0; i < half; i++ {
				d.samples[i] = d.samples[2*i]
			}
			d.samples = d.samples[:half]
			d.stride *= 2
		}
	}
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
	d.n = 0
	d.samples = d.samples[:0]
}

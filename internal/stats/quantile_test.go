package stats

import (
	"math"
	"sort"
	"testing"

	"qarv/internal/geom"
)

// exactNearestRank returns the nearest-rank q-quantile of xs — the
// definition QuantileSketch.Quantile targets.
func exactNearestRank(xs []float64, q float64) float64 {
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	rank := int(math.Ceil(q * float64(len(sorted)-1)))
	return sorted[rank]
}

// TestQuantileSketchErrorBound checks the advertised relative error
// bound against exact quantiles across distributions spanning several
// orders of magnitude, at multiple accuracies.
func TestQuantileSketchErrorBound(t *testing.T) {
	rng := geom.NewRNG(7)
	distributions := map[string]func() float64{
		// Heavy-tailed, ~6 orders of magnitude: lognormal.
		"lognormal": func() float64 { return math.Exp(rng.NormMeanStd(3, 2)) },
		// Uniform over a backlog-like range.
		"uniform": func() float64 { return rng.Range(0, 250_000) },
		// Small integers with ties (sojourn-like).
		"geometric-ints": func() float64 { return float64(rng.Poisson(4)) },
	}
	for name, draw := range distributions {
		for _, alpha := range []float64{0.01, 0.05} {
			s := NewQuantileSketch(alpha)
			xs := make([]float64, 20_000)
			for i := range xs {
				xs[i] = draw()
				s.Add(xs[i])
			}
			for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.95, 0.99, 1} {
				got := s.Quantile(q)
				want := exactNearestRank(xs, q)
				tol := alpha*want + sketchMinValue
				if math.Abs(got-want) > tol {
					t.Errorf("%s alpha=%v q=%v: got %v want %v (tol %v)",
						name, alpha, q, got, want, tol)
				}
			}
			if s.Count() != uint64(len(xs)) {
				t.Errorf("%s: count %d want %d", name, s.Count(), len(xs))
			}
		}
	}
}

// TestQuantileSketchExactStats checks that count/sum/mean/min/max are
// exact, not sketched.
func TestQuantileSketchExactStats(t *testing.T) {
	s := NewQuantileSketch(0.01)
	xs := []float64{3, 0, 12.5, 7, 0.25, 1e6}
	var sum float64
	for _, x := range xs {
		s.Add(x)
		sum += x
	}
	if s.Min() != 0 || s.Max() != 1e6 {
		t.Errorf("min/max = %v/%v, want 0/1e6", s.Min(), s.Max())
	}
	if math.Abs(s.sum-sum) > 1e-9 || math.Abs(s.Mean()-sum/6) > 1e-9 {
		t.Errorf("sum/mean = %v/%v, want %v/%v", s.sum, s.Mean(), sum, sum/6)
	}
	// Negatives clamp to zero; NaN is ignored.
	s.Add(-5)
	if s.Min() != 0 || s.Count() != 7 {
		t.Errorf("after Add(-5): min=%v count=%d", s.Min(), s.Count())
	}
	s.Add(math.NaN())
	if s.Count() != 7 {
		t.Errorf("NaN was counted: count=%d", s.Count())
	}
}

// TestQuantileSketchMergeLossless verifies the core fleet property:
// sharded sketches merged together answer every quantile exactly as the
// single sketch over the union would.
func TestQuantileSketchMergeLossless(t *testing.T) {
	rng := geom.NewRNG(11)
	whole := NewQuantileSketch(0.01)
	parts := make([]*QuantileSketch, 4)
	for i := range parts {
		parts[i] = NewQuantileSketch(0.01)
	}
	for i := 0; i < 10_000; i++ {
		x := math.Exp(rng.NormMeanStd(1, 1.5))
		whole.Add(x)
		parts[i%len(parts)].Add(x)
	}
	merged := NewQuantileSketch(0.01)
	for _, p := range parts {
		if err := merged.Merge(p); err != nil {
			t.Fatal(err)
		}
	}
	if merged.Count() != whole.Count() {
		t.Fatalf("merged count %d != whole %d", merged.Count(), whole.Count())
	}
	// Sums differ only by FP association order across shards.
	if math.Abs(merged.sum-whole.sum) > 1e-9*whole.sum {
		t.Fatalf("merged sum %v != whole %v", merged.sum, whole.sum)
	}
	for q := 0.0; q <= 1.0; q += 0.05 {
		if got, want := merged.Quantile(q), whole.Quantile(q); got != want {
			t.Errorf("q=%v: merged %v != whole %v", q, got, want)
		}
	}
}

func TestQuantileSketchMergeMismatch(t *testing.T) {
	a, b := NewQuantileSketch(0.01), NewQuantileSketch(0.05)
	b.Add(1)
	if err := a.Merge(b); err == nil {
		t.Fatal("merging mismatched accuracies should fail")
	}
	// Merging an empty or nil sketch is a no-op, whatever its accuracy.
	if err := a.Merge(NewQuantileSketch(0.5)); err != nil {
		t.Fatalf("empty merge: %v", err)
	}
	if err := a.Merge(nil); err != nil {
		t.Fatalf("nil merge: %v", err)
	}
}

// TestQuantileSketchFixedMemory pins the O(log(max/min)/alpha) memory
// bound: a million observations spanning nine orders of magnitude must
// not grow the bucket table past the hard cap.
func TestQuantileSketchFixedMemory(t *testing.T) {
	rng := geom.NewRNG(3)
	s := NewQuantileSketch(0.01)
	for i := 0; i < 1_000_000; i++ {
		s.Add(math.Exp(rng.Range(0, math.Log(1e9))))
	}
	if n := s.BucketCount(); n > sketchMaxBuckets {
		t.Fatalf("bucket count %d exceeds cap %d", n, sketchMaxBuckets)
	}
	// Nine decades at 1% accuracy is ~1040 buckets; far below the cap.
	if n := s.BucketCount(); n > 1200 {
		t.Errorf("bucket count %d unexpectedly large for 9 decades", n)
	}
}

func TestQuantileSketchEmptyAndSingle(t *testing.T) {
	s := NewQuantileSketch(0.01)
	if got := s.Quantile(0.5); got != 0 {
		t.Errorf("empty sketch quantile = %v, want 0", got)
	}
	s.Add(42)
	for _, q := range []float64{0, 0.5, 1} {
		got := s.Quantile(q)
		if math.Abs(got-42) > 0.01*42 {
			t.Errorf("single-value q=%v: got %v want ~42", q, got)
		}
	}
}

func TestDecimatorKeepsShape(t *testing.T) {
	d := NewDecimator(64)
	n := 100_000
	for i := 0; i < n; i++ {
		d.Add(float64(i)) // a pure ramp
	}
	samples := d.Samples()
	if len(samples) >= 64 {
		t.Fatalf("decimator overflowed its cap: %d samples", len(samples))
	}
	if len(samples) < 32 {
		t.Fatalf("decimator too sparse: %d samples", len(samples))
	}
	// Uniform stride over a ramp: samples are the ramp at stride spacing.
	stride := float64(d.stride)
	for i, s := range samples {
		if s != float64(i)*stride {
			t.Fatalf("sample %d = %v, want %v (stride %v)", i, s, float64(i)*stride, stride)
		}
	}
	if d.Count() != n {
		t.Errorf("count %d want %d", d.Count(), n)
	}
}

// TestDecimatorExactBelowCap: short series are retained verbatim, so
// downstream classification sees the exact trajectory.
func TestDecimatorExactBelowCap(t *testing.T) {
	d := NewDecimator(64)
	for i := 0; i < 63; i++ {
		d.Add(float64(i * i))
	}
	samples := d.Samples()
	if len(samples) != 63 || d.stride != 1 {
		t.Fatalf("len=%d stride=%d, want 63/1", len(samples), d.stride)
	}
	for i, s := range samples {
		if s != float64(i*i) {
			t.Fatalf("sample %d = %v, want %v", i, s, float64(i*i))
		}
	}
	d.Reset()
	if d.Count() != 0 || len(d.Samples()) != 0 || d.stride != 1 {
		t.Error("Reset did not clear state")
	}
}

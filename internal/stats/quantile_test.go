package stats

import (
	"math"
	"reflect"
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

// sketchIndexAccuracies are the accuracies the index tests cover, from
// ~2000-bucket decades down to a handful of buckets per decade.
var sketchIndexAccuracies = []float64{0.001, 0.01, 0.05, 0.2, 0.5}

// TestSketchIndexMatchesExact pins the fast bucket index to the exact
// formula ceil(ln(x)/ln(gamma)) bit for bit, so no observation changes
// bucket: over log-uniform values from 1e-6 to 1e300, over the small
// integers sojourns and depths take, and within ±4 ulps of every bucket
// boundary gamma^i, where only the fallback can be right.
func TestSketchIndexMatchesExact(t *testing.T) {
	rng := geom.NewRNG(29)
	logUniform := make([]float64, 1_000_000)
	for i := range logUniform {
		logUniform[i] = math.Exp(rng.Range(math.Log(1e-6), math.Log(1e300)))
	}
	// index tolerates logApprox − math.Log up to logApproxMargin plus
	// 2^-45·|ln x|; the approximation should use a small share of that.
	var worst float64
	for _, x := range logUniform {
		l := math.Log(x)
		worst = math.Max(worst, math.Abs(logApprox(x)-l)/(logApproxMargin+math.Abs(l)*0x1p-45))
	}
	if worst > 0.05 {
		t.Errorf("logApprox uses %.3g of index's error margin, want a wide berth", worst)
	}
	for _, alpha := range sketchIndexAccuracies {
		s := NewQuantileSketch(alpha)
		check := func(what string, x float64) {
			if got, want := s.index(x), int(math.Ceil(math.Log(x)/s.lgamma)); got != want {
				t.Fatalf("alpha=%v %s: index(%v) = %d, want %d", alpha, what, x, got, want)
			}
		}
		for _, x := range logUniform {
			check("log-uniform", x)
		}
		// 0 lands in the zero bucket, below any index.
		for n := 1; n <= 100_000; n++ {
			check("integer", float64(n))
		}
		for i := s.exactIndex(sketchMinValue); ; i++ {
			b := math.Exp(float64(i) * s.lgamma)
			if math.IsInf(b, 1) {
				break
			}
			lo, hi := b, b
			for u := 0; u < 4; u++ {
				lo, hi = math.Nextafter(lo, 0), math.Nextafter(hi, math.Inf(1))
			}
			for x := lo; x <= hi && !math.IsInf(x, 1); x = math.Nextafter(x, math.Inf(1)) {
				if x >= sketchMinValue {
					check("boundary", x)
				}
			}
		}
		if got, want := s.index(math.Inf(1)), s.exactIndex(math.MaxFloat64); got != want {
			t.Errorf("alpha=%v: index(+Inf) = %d, want the top bucket %d", alpha, got, want)
		}
	}
}

// TestQuantileSketchMergeDisjoint merges sketches whose index ranges do
// not overlap, in both directions, so the destination grows to the left
// as well as to the right: every quantile must equal that of one sketch
// fed both streams.
func TestQuantileSketchMergeDisjoint(t *testing.T) {
	rng := geom.NewRNG(5)
	low, high, whole := NewQuantileSketch(0.01), NewQuantileSketch(0.01), NewQuantileSketch(0.01)
	for i := 0; i < 5_000; i++ {
		a, b := rng.Range(1e-3, 1e-2), rng.Range(1e3, 1e4)
		low.Add(a)
		high.Add(b)
		whole.Add(a)
		whole.Add(b)
	}
	for name, pair := range map[string][2]*QuantileSketch{
		"grow-left":  {high, low},
		"grow-right": {low, high},
	} {
		merged := NewQuantileSketch(0.01)
		for _, part := range pair {
			if err := merged.Merge(part); err != nil {
				t.Fatal(err)
			}
		}
		if merged.Count() != whole.Count() || merged.BucketCount() != whole.BucketCount() {
			t.Fatalf("%s: merged count/buckets %d/%d, want %d/%d", name,
				merged.Count(), merged.BucketCount(), whole.Count(), whole.BucketCount())
		}
		for q := 0.0; q <= 1.0; q += 0.01 {
			if got, want := merged.Quantile(q), whole.Quantile(q); got != want {
				t.Errorf("%s q=%v: merged %v != whole %v", name, q, got, want)
			}
		}
	}
}

// TestQuantileSketchDenseSpan pins the dense layout's memory bound:
// counts holds the buckets between the smallest and largest
// observation in a ring of at most twice their span, and at 1%
// accuracy the whole range from sketchMinValue to math.MaxFloat64 is
// about 36k buckets, within sketchMaxSpan.
func TestQuantileSketchDenseSpan(t *testing.T) {
	s := NewQuantileSketch(0.01)
	s.Add(1e300)
	s.Add(1e-6)
	s.Add(1)
	if span := s.exactIndex(1e300) - s.exactIndex(1e-6) + 1; len(s.counts) > 2*span {
		t.Errorf("counts holds %d buckets, want at most twice the span %d", len(s.counts), span)
	}
	if s.BucketCount() != 3 || s.zero != 0 {
		t.Errorf("%d live buckets and %d zero-bucket observations, want 3 and 0", s.BucketCount(), s.zero)
	}
	full := s.exactIndex(math.MaxFloat64) - s.exactIndex(sketchMinValue) + 1
	if full < 35_000 || full > 37_000 || full > sketchMaxSpan {
		t.Errorf("1%% span from %g to MaxFloat64 is %d buckets, documented as about 36k, within %d",
			sketchMinValue, full, sketchMaxSpan)
	}
}

// TestQuantileSketchSpanCap bounds memory at accuracies fine enough
// that the observed range spans more than sketchMaxSpan buckets: the
// ring never outgrows sketchMaxSpan, the lowest buckets fold into the
// zero bucket, and the upper quantiles keep their accuracy.
func TestQuantileSketchSpanCap(t *testing.T) {
	const alpha = 1e-6
	s := NewQuantileSketch(alpha)
	for x := 1.0; x <= 1e6; x++ {
		s.Add(x)
	}
	if len(s.counts) > sketchMaxSpan || s.hi-s.lo >= sketchMaxSpan || s.BucketCount() > sketchMaxBuckets {
		t.Errorf("ring %d, span %d, %d live buckets: want at most %d, %d and %d",
			len(s.counts), s.hi-s.lo+1, s.BucketCount(), sketchMaxSpan, sketchMaxSpan, sketchMaxBuckets)
	}
	for _, q := range []float64{0.999, 0.9999, 1} {
		want := math.Ceil(q*(1e6-1)) + 1
		if got := s.Quantile(q); math.Abs(got-want) > alpha*want {
			t.Errorf("q=%v: %v, want within %g of %v", q, got, alpha, want)
		}
	}
	// An accuracy too fine for int bucket indices takes the finest
	// supported one, where the span cap keeps only the top decade.
	tiny := NewQuantileSketch(1e-300)
	for _, x := range []float64{1e-6, 1, 1e300} {
		tiny.Add(x)
	}
	if tiny.alpha != sketchMinAccuracy || tiny.BucketCount() != 1 || tiny.zero != 2 || len(tiny.counts) > 64 {
		t.Errorf("accuracy 1e-300: alpha %v, %d live buckets, %d folded, ring %d; want %v, 1, 2, at most 64",
			tiny.alpha, tiny.BucketCount(), tiny.zero, len(tiny.counts), sketchMinAccuracy)
	}
	// The span reaches sketchMaxSpan buckets, and one bucket more folds
	// the lowest.
	c := NewQuantileSketch(1e-4)
	at := func(i int) float64 { return math.Exp((float64(i) - 0.5) * c.lgamma) }
	c.Add(at(1))
	c.Add(at(sketchMaxSpan))
	if c.BucketCount() != 2 || c.zero != 0 {
		t.Errorf("span %d: %d live buckets, %d folded, want 2 and 0", sketchMaxSpan, c.BucketCount(), c.zero)
	}
	c.Add(at(sketchMaxSpan + 1))
	if c.BucketCount() != 2 || c.zero != 1 || c.lo != sketchMaxSpan {
		t.Errorf("span %d: %d live buckets from %d, %d folded, want 2 from %d and 1",
			sketchMaxSpan+1, c.BucketCount(), c.lo, c.zero, sketchMaxSpan)
	}
	// Two observations farther apart than sketchMaxSpan buckets keep
	// only the higher, whichever comes first.
	for _, pair := range [][2]float64{{1e-6, 1e300}, {1e300, 1e-6}} {
		s := NewQuantileSketch(1e-4)
		s.Add(pair[0])
		s.Add(pair[1])
		if s.BucketCount() != 1 || s.zero != 1 || len(s.counts) > 64 {
			t.Errorf("%v: %d live buckets, %d zero-bucket observations, ring %d: want 1, 1 and at most 64",
				pair, s.BucketCount(), s.zero, len(s.counts))
		}
		if got := s.Quantile(1); math.Abs(got-1e300) > 1e-4*1e300 {
			t.Errorf("%v: max quantile %v, want within 0.01%% of 1e300", pair, got)
		}
	}
}

// TestQuantileSketchMergeCapped merges two sketches whose streams pass
// one cap or the other at a fine accuracy: the merge must fold exactly
// what one sketch fed both streams folds, bucket for bucket.
func TestQuantileSketchMergeCapped(t *testing.T) {
	const alpha = 1e-4 // 1e-6..1e12 spans ~207k buckets, past sketchMaxSpan
	// 1000 values per stream pass only the span cap; 20000 pass the
	// live cap before the span cap.
	for _, n := range []int{1_000, 20_000} {
		rng := geom.NewRNG(11)
		a, b, whole := NewQuantileSketch(alpha), NewQuantileSketch(alpha), NewQuantileSketch(alpha)
		for i := 0; i < n; i++ {
			x, y := math.Exp(rng.Range(math.Log(1e-6), math.Log(1e12))), math.Exp(rng.Range(math.Log(1e-6), math.Log(1e6)))
			a.Add(x)
			b.Add(y)
			whole.Add(x)
			whole.Add(y)
		}
		if err := a.Merge(b); err != nil {
			t.Fatal(err)
		}
		if a.zero != whole.zero || a.BucketCount() != whole.BucketCount() || a.lo != whole.lo || a.hi != whole.hi {
			t.Fatalf("n=%d: merged zero/buckets/window %d/%d/[%d,%d], want %d/%d/[%d,%d]", n,
				a.zero, a.BucketCount(), a.lo, a.hi, whole.zero, whole.BucketCount(), whole.lo, whole.hi)
		}
		if spanCapped := whole.BucketCount() < sketchMaxBuckets; whole.zero == 0 || spanCapped != (n == 1_000) {
			t.Fatalf("n=%d: %d folded with %d live buckets, want the other cap", n, whole.zero, whole.BucketCount())
		}
		for q := 0.0; q <= 1.0; q += 0.01 {
			if got, want := a.Quantile(q), whole.Quantile(q); got != want {
				t.Errorf("n=%d q=%v: merged %v != whole %v", n, q, got, want)
			}
		}
	}
}

// TestQuantileSketchCollapse drives the live bucket count past
// sketchMaxBuckets in ascending and descending order: either way the
// lowest buckets fold into the zero bucket and the rest stay exact.
func TestQuantileSketchCollapse(t *testing.T) {
	const distinct = sketchMaxBuckets + 100
	up, down := NewQuantileSketch(0.001), NewQuantileSketch(0.001)
	at := func(i int) float64 { return math.Exp((float64(i) - 0.5) * up.lgamma) }
	for i := 0; i < distinct; i++ {
		up.Add(at(i))
		down.Add(at(distinct - 1 - i))
	}
	for name, s := range map[string]*QuantileSketch{"ascending": up, "descending": down} {
		if s.BucketCount() != sketchMaxBuckets || s.zero != distinct-sketchMaxBuckets {
			t.Errorf("%s: %d live buckets and %d zero-bucket observations, want %d and %d",
				name, s.BucketCount(), s.zero, sketchMaxBuckets, distinct-sketchMaxBuckets)
		}
		if got := s.Quantile(0); got != 0 {
			t.Errorf("%s: min quantile %v, want 0 from the collapsed buckets", name, got)
		}
		if got, top := s.Quantile(1), at(distinct-1); math.Abs(got-top) > 0.001*top {
			t.Errorf("%s: max quantile %v, want within 0.1%% of %v", name, got, top)
		}
	}
	for q := 0.0; q <= 1.0; q += 0.01 {
		if a, b := up.Quantile(q), down.Quantile(q); a != b {
			t.Errorf("q=%v: ascending %v != descending %v", q, a, b)
		}
	}
	// Past the cap, a value below every live bucket goes straight to the
	// zero bucket, however far below, and a new highest bucket folds the
	// lowest and moves the window; neither allocates.
	ring := len(down.counts)
	down.Add(at(-ring / 2)) // above sketchMinValue, and beyond the ring from the top
	if len(down.counts) != ring || down.lo != distinct-sketchMaxBuckets {
		t.Errorf("a far-below value past the cap moved the window to %d or grew the ring to %d", down.lo, len(down.counts))
	}
	next := -1
	if allocs := testing.AllocsPerRun(1000, func() { down.Add(at(next)); next-- }); allocs != 0 {
		t.Errorf("descending Add past the cap allocates %v times, want 0", allocs)
	}
	next = distinct
	if allocs := testing.AllocsPerRun(1000, func() { up.Add(at(next)); next++ }); allocs != 0 {
		t.Errorf("ascending Add past the cap allocates %v times, want 0", allocs)
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

// TestQuantileSketchAddNMatchesAdd is the fold's property test: n
// observations of x folded by one AddN must leave the sketch exactly as
// n calls of Add(x) do, with the calls interleaved in any order. The
// values are integers plus two zero-bucket values (0 and the dyadic
// 2^-21), and every sum stays below 2^32, so every partial sum is exact
// and Mean must match bit for bit. At 1e-6 the values span more than
// sketchMaxSpan buckets, and a run of consecutive integers at the top
// fills more than sketchMaxBuckets, so both caps fold buckets.
func TestQuantileSketchAddNMatchesAdd(t *testing.T) {
	for _, tc := range []struct {
		alpha              float64
		random, maxValue   int
		denseFrom, denseTo int // a run of consecutive integers, if any
		maxCount           int
	}{
		{0.01, 400, 5000, 0, 0, 8},
		{1e-4, 400, 5000, 0, 0, 8},
		{1e-6, 1000, 200_000, 200_001, 205_000, 2},
	} {
		rng := geom.NewRNG(uint64(tc.random))
		values := []float64{0, 0x1p-21}
		for i := 0; i < tc.random; i++ {
			values = append(values, float64(1+rng.Intn(tc.maxValue)))
		}
		for x := tc.denseFrom; x > 0 && x <= tc.denseTo; x++ {
			values = append(values, float64(x))
		}
		counts := make([]uint64, len(values))
		var stream []float64
		for i, x := range values {
			counts[i] = uint64(1 + rng.Intn(tc.maxCount))
			for k := uint64(0); k < counts[i]; k++ {
				stream = append(stream, x)
			}
		}
		added := NewQuantileSketch(tc.alpha)
		for _, i := range rng.Perm(len(stream)) {
			added.Add(stream[i])
		}
		// Fold in descending order, the reverse of how the caps favour
		// arrivals, and once more ascending.
		for _, order := range []string{"descending", "ascending"} {
			folded := NewQuantileSketch(tc.alpha)
			idx := make([]int, len(values))
			for i := range idx {
				idx[i] = i
			}
			sort.Slice(idx, func(a, b int) bool {
				if order == "descending" {
					return values[idx[a]] > values[idx[b]]
				}
				return values[idx[a]] < values[idx[b]]
			})
			for _, i := range idx {
				folded.AddN(values[i], counts[i])
			}
			folded.AddN(7, 0) // an empty fold changes nothing
			if folded.Count() != added.Count() || folded.Mean() != added.Mean() ||
				folded.Min() != added.Min() || folded.Max() != added.Max() {
				t.Errorf("α=%g %s: count/mean/min/max %d/%v/%v/%v, want %d/%v/%v/%v", tc.alpha, order,
					folded.Count(), folded.Mean(), folded.Min(), folded.Max(),
					added.Count(), added.Mean(), added.Min(), added.Max())
			}
			if folded.BucketCount() != added.BucketCount() || folded.zero != added.zero {
				t.Errorf("α=%g %s: %d live buckets and %d in zero, want %d and %d", tc.alpha, order,
					folded.BucketCount(), folded.zero, added.BucketCount(), added.zero)
			}
			for k := 0; k <= 100; k++ {
				q := float64(k) / 100
				if got, want := folded.Quantile(q), added.Quantile(q); got != want {
					t.Errorf("α=%g %s: q=%v: folded %v, added %v", tc.alpha, order, q, got, want)
				}
			}
		}
		if tc.alpha == 1e-6 && (added.BucketCount() != sketchMaxBuckets || added.zero <= counts[0]+counts[1] ||
			added.hi-added.exactIndex(1) < sketchMaxSpan) {
			t.Errorf("α=1e-6: %d live buckets, %d in zero: the caps did not engage",
				added.BucketCount(), added.zero)
		}
	}
	// NaN folds nothing; negatives fold as zeros.
	s := NewQuantileSketch(0.01)
	s.AddN(math.NaN(), 3)
	s.AddN(-2, 3)
	if s.Count() != 3 || s.zero != 3 || s.Max() != 0 || s.Mean() != 0 {
		t.Errorf("NaN and -2 folded to count %d, zero %d, max %v, mean %v; want 3, 3, 0, 0",
			s.Count(), s.zero, s.Max(), s.Mean())
	}
}

// TestDecimatorCountdownMatchesModulo pins the countdown against the
// rule it replaces: keep value n when n%stride == 0, halving at the
// cap. After every length from 0 to 5000 the retained samples, the
// stride and the count must equal the modulo rule's.
func TestDecimatorCountdownMatchesModulo(t *testing.T) {
	for _, capacity := range []int{16, 256} {
		d := NewDecimator(capacity)
		var ref []float64
		stride, n := 1, 0
		add := func(x float64) {
			t.Helper()
			d.Add(x)
			if n%stride == 0 {
				ref = append(ref, x)
				if len(ref) >= capacity {
					half := (len(ref) + 1) / 2
					for i := 0; i < half; i++ {
						ref[i] = ref[2*i]
					}
					ref = ref[:half]
					stride *= 2
				}
			}
			n++
			got := d.Samples()
			if d.Count() != n || d.stride != stride || !reflect.DeepEqual(got, ref) {
				t.Fatalf("cap %d, length %d: count %d, stride %d, samples %v; want %d, %d, %v",
					capacity, n, d.Count(), d.stride, got, n, stride, ref)
			}
		}
		if d.Count() != 0 || len(d.Samples()) != 0 {
			t.Fatalf("cap %d: a new decimator holds %d samples", capacity, len(d.Samples()))
		}
		for i := 0; i < 5000; i++ {
			add(float64(i*i%977) + 0.5)
		}
		// A reset decimator starts the rule over.
		d.Reset()
		ref, stride, n = ref[:0], 1, 0
		for i := 0; i < 3*capacity; i++ {
			add(float64(i))
		}
	}
}

package stats

import (
	"math"
	"testing"
	"testing/quick"

	"qarv/internal/geom"
)

func TestRunningMoments(t *testing.T) {
	var r Running
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Add(x)
	}
	if r.n != 8 {
		t.Errorf("count = %d", r.n)
	}
	if math.Abs(r.Mean()-5) > 1e-12 {
		t.Errorf("mean = %v", r.Mean())
	}
}

func TestRunningEmptyAndSingle(t *testing.T) {
	var r Running
	if r.Mean() != 0 {
		t.Error("empty Running must report a zero mean")
	}
	r.Add(3)
	if r.Mean() != 3 {
		t.Errorf("single observation: mean %v", r.Mean())
	}
}

func TestRunningMatchesBatchProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := geom.NewRNG(seed)
		n := rng.Intn(100) + 2
		xs := make([]float64, n)
		var r Running
		for i := range xs {
			xs[i] = rng.NormMeanStd(10, 3)
			r.Add(xs[i])
		}
		var sum float64
		for _, x := range xs {
			sum += x
		}
		return math.Abs(r.Mean()-sum/float64(n)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	cases := []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {62.5, 3.5},
	}
	for _, c := range cases {
		got, err := Percentile(xs, c.p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
	// Input must not be mutated (sorted copy).
	if xs[0] != 5 {
		t.Error("Percentile mutated its input")
	}
	if _, err := Percentile(nil, 50); err == nil {
		t.Error("empty slice must error")
	}
	if _, err := Percentile(xs, 101); err == nil {
		t.Error("p > 100 must error")
	}
	if v, err := Percentile([]float64{7}, 30); err != nil || v != 7 {
		t.Errorf("single element = %v, %v", v, err)
	}
}

func TestOLSRecoversLine(t *testing.T) {
	rng := geom.NewRNG(13)
	xs := make([]float64, 200)
	ys := make([]float64, 200)
	for i := range xs {
		xs[i] = rng.Range(0, 100)
		ys[i] = 3.5*xs[i] + 42 + rng.NormMeanStd(0, 0.5)
	}
	fit, err := OLS(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-3.5) > 0.05 {
		t.Errorf("slope = %v", fit.Slope)
	}
	if math.Abs(fit.Intercept-42) > 2 {
		t.Errorf("intercept = %v", fit.Intercept)
	}
	if fit.R2 < 0.99 {
		t.Errorf("R2 = %v", fit.R2)
	}
}

func TestOLSErrors(t *testing.T) {
	if _, err := OLS([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch must error")
	}
	if _, err := OLS([]float64{1}, []float64{1}); err == nil {
		t.Error("single point must error")
	}
	if _, err := OLS([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Error("constant x must error")
	}
	fit, err := OLS([]float64{1, 2, 3}, []float64{5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if fit.Slope != 0 || fit.R2 != 1 {
		t.Errorf("constant y: %+v", fit)
	}
}

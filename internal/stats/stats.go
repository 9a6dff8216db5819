// Package stats provides the small statistical toolkit the simulator,
// fleet and experiment code rely on: a streaming mean (Welford),
// percentiles, ordinary least-squares regression, mergeable quantile
// sketches and bounded series decimation.
package stats

import (
	"errors"
	"math"
	"sort"
)

// Running accumulates a streaming count and mean with Welford's
// update. The zero value is ready to use.
type Running struct {
	n    int
	mean float64
}

// Add incorporates one observation.
func (r *Running) Add(x float64) {
	r.n++
	r.mean += (x - r.mean) / float64(r.n)
}

// Mean returns the sample mean (0 when empty).
func (r *Running) Mean() float64 { return r.mean }

// Percentile returns the p-th percentile (p ∈ [0,100]) of xs using linear
// interpolation between order statistics. xs need not be sorted.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, errors.New("stats: percentile of empty slice")
	}
	if p < 0 || p > 100 {
		return 0, errors.New("stats: percentile out of [0,100]")
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// LinearFit is an ordinary least-squares fit y ≈ Slope·x + Intercept.
type LinearFit struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// OLS fits a line to (xs, ys). It requires at least two points and
// non-degenerate x variance.
//
//qarv:allow unreached (a) oracle: queueing's indexSlope test pins its slope bit-equal to OLS
func OLS(xs, ys []float64) (LinearFit, error) {
	if len(xs) != len(ys) {
		return LinearFit{}, errors.New("stats: OLS input length mismatch")
	}
	if len(xs) < 2 {
		return LinearFit{}, errors.New("stats: OLS needs at least two points")
	}
	n := float64(len(xs))
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{}, errors.New("stats: OLS x values are constant")
	}
	slope := sxy / sxx
	fit := LinearFit{Slope: slope, Intercept: my - slope*mx}
	if syy > 0 {
		fit.R2 = sxy * sxy / (sxx * syy)
	} else {
		fit.R2 = 1 // constant y perfectly fit by zero-slope line
	}
	return fit, nil
}

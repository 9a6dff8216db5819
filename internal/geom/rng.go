package geom

import "math"

// RNG is a small, deterministic, splittable pseudo-random generator
// (SplitMix64 core). Every stochastic component in the repository — the
// synthetic dataset, arrival processes, service jitter, random baselines —
// takes an *RNG seeded from the experiment config, so whole experiments are
// bit-reproducible without global state (no math/rand globals).
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Split derives an independent child generator; the parent advances once.
// Children seeded from distinct parent draws have uncorrelated streams for
// practical simulation purposes.
func (r *RNG) Split() *RNG { return &RNG{state: r.Uint64() ^ 0x9e3779b97f4a7c15} }

// Uint64 returns the next 64 uniform random bits (SplitMix64).
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform draw in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform draw in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.Uint64() % uint64(n))
}

// Range returns a uniform draw in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Norm returns a standard normal draw (Box–Muller).
func (r *RNG) Norm() float64 {
	// Reject u1 == 0 to keep Log finite.
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// NormMeanStd returns a normal draw with the given mean and stddev.
func (r *RNG) NormMeanStd(mean, std float64) float64 {
	return mean + std*r.Norm()
}

// Poisson returns a Poisson draw with mean lambda (Knuth for small lambda,
// normal approximation above 64 where Knuth's product underflows slowly).
func (r *RNG) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 64 {
		n := int(math.Round(r.NormMeanStd(lambda, math.Sqrt(lambda))))
		if n < 0 {
			n = 0
		}
		return n
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Exp returns an exponential draw with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// UnitSphere returns a uniform draw on the surface of the unit sphere.
func (r *RNG) UnitSphere() Vec3 {
	z := r.Range(-1, 1)
	theta := r.Range(0, 2*math.Pi)
	s := math.Sqrt(1 - z*z)
	return Vec3{X: s * math.Cos(theta), Y: s * math.Sin(theta), Z: z}
}

// Perm returns a random permutation of [0, n) (Fisher–Yates).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

package learn

import (
	"testing"

	"qarv/internal/alloc"
	"qarv/internal/geom"
	"qarv/internal/policy"
)

// benchDevices is the contending-fleet size of the allocator
// benchmarks — the same 8-device shape the learning ablation sweeps.
const benchDevices = 8

// benchDepth keeps BenchmarkPolicyDecide's results live so the compiler
// cannot drop the measured calls.
var benchDepth int

// BenchmarkAllocateLearn measures one slot's Allocate(+Learn) cycle over
// an 8-device backlog state for every allocator ByName can construct,
// so a learner's per-slot overhead reads directly against the static
// baselines (equal, proportional, maxweight, wrr).
func BenchmarkAllocateLearn(b *testing.B) {
	for _, name := range alloc.CanonicalNames() {
		b.Run(name, func(b *testing.B) {
			a, err := alloc.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			if r, ok := a.(interface{ Reseed(*geom.RNG) }); ok {
				r.Reseed(geom.NewRNG(1))
			}
			learner, _ := a.(alloc.Learner)
			backlogs := make([]float64, benchDevices)
			utilities := make([]float64, benchDevices)
			shares := make([]float64, benchDevices)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for d := range backlogs {
					backlogs[d] = float64((i*7 + d*13) % 97)
					utilities[d] = float64((i+d)%10) / 10
				}
				a.Allocate(i, 100, backlogs, shares)
				if learner != nil {
					learner.Learn(i, utilities, backlogs)
				}
			}
		})
	}
}

// BenchmarkPolicyDecide measures Decide for the display-policy wrappers
// around a trivial inner policy, so the cost is the wrapper's own (EWMA
// update, ring buffer), not the controller's argmax.
func BenchmarkPolicyDecide(b *testing.B) {
	inner := func() policy.Policy { return &policy.FixedDepth{Depth: 8} }
	cases := []struct {
		name string
		p    policy.Policy
	}{
		{"stock", inner()},
		{"predictive", NewPredictive(inner(), 0, 0)},
		{"delayed", NewLagged(inner(), 0)},
		{"predictive-delayed", NewLagged(NewPredictive(inner(), 0, 0), 0)},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchDepth = c.p.Decide(i, float64((i*11)%1000))
			}
		})
	}
}

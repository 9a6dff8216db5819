// Package policy is the reseed golden fixture.
package policy

import (
	"qarv/internal/delay"
	"qarv/internal/geom"
)

// Full reseeds and is no capacity process: clean.
type Full struct {
	rng *geom.RNG
}

// Reseed implements the per-run reseeding contract.
func (f *Full) Reseed(rng *geom.RNG) { f.rng = rng }

// ForRunOnly copies itself per run but cannot be reseeded.
type ForRunOnly struct { // want "ForRunOnly holds \*geom.RNG but lacks Reseed"
	RNG *geom.RNG
}

// Service makes ForRunOnly a capacity process.
func (p *ForRunOnly) Service(int) float64 { return 1 }

// ForRun implements the per-run copy.
func (p *ForRunOnly) ForRun(stream func() *geom.RNG) delay.ServiceProcess {
	c := *p
	c.RNG = stream()
	return &c
}

// Naked holds random state with no Reseed.
type Naked struct { // want "Naked holds \*geom.RNG but lacks Reseed"
	RNG *geom.RNG
}

// Plain has no RNG: the contract does not apply to its Service.
type Plain struct {
	Depth int
}

// Service is an ordinary capacity, no contract implied.
func (p *Plain) Service(int) float64 { return float64(p.Depth) }

// Process is a capacity process with the full contract: clean.
type Process struct {
	RNG *geom.RNG
}

// Service implements delay.ServiceProcess.
func (p *Process) Service(int) float64 { return 1 }

// Reseed implements the per-run reseeding half.
func (p *Process) Reseed(rng *geom.RNG) { p.RNG = rng }

// ForRun implements the per-run copy.
func (p *Process) ForRun(stream func() *geom.RNG) delay.ServiceProcess {
	c := *p
	c.Reseed(stream())
	return &c
}

// Shared reseeds but has no ForRun, so delay.ForRun would hand every
// run the prototype itself: the rot the analyzer exists to catch.
type Shared struct { // want "Shared holds \*geom.RNG but lacks ForRun"
	RNG *geom.RNG
}

// Service implements delay.ServiceProcess.
func (s *Shared) Service(int) float64 { return 1 }

// Reseed implements the per-run reseeding half.
func (s *Shared) Reseed(rng *geom.RNG) { s.RNG = rng }

// NakedProcess is a capacity process with neither method.
type NakedProcess struct { // want "NakedProcess holds \*geom.RNG but lacks Reseed and ForRun"
	RNG *geom.RNG
}

// Service implements delay.ServiceProcess.
func (n *NakedProcess) Service(int) float64 { return 1 }

// Misnamed's ForRun has a signature delay.ForRun never calls.
type Misnamed struct { // want "Misnamed holds \*geom.RNG but its ForRun is func\(rng \*qarv/internal/geom.RNG\) qarv/internal/delay.ServiceProcess"
	RNG *geom.RNG
}

// Service implements delay.ServiceProcess.
func (m *Misnamed) Service(int) float64 { return 1 }

// Reseed implements the per-run reseeding half.
func (m *Misnamed) Reseed(rng *geom.RNG) { m.RNG = rng }

// ForRun takes a generator, not a stream.
func (m *Misnamed) ForRun(rng *geom.RNG) delay.ServiceProcess {
	c := *m
	c.Reseed(rng)
	return &c
}

// Learner mirrors internal/learn's bandit shape: weights plus a
// generator behind Reseed. Clean.
type Learner struct {
	rng     *geom.RNG
	weights []float64
}

// Reseed implements the per-run reseeding contract.
func (l *Learner) Reseed(rng *geom.RNG) { l.rng = rng }

// TunedLearner embeds the learner: its generator is the learner's, so
// the promoted Reseed reaches it. Clean.
type TunedLearner struct {
	Learner
	Bonus float64
}

// Scaled embeds a process and inherits its ForRun, which copies only
// the embedded Process: every run would share Scaled's Gain and get a
// bare *Process back.
type Scaled struct { // want "Scaled holds \*geom.RNG but inherits ForRun from Process, which copies only the embedded state; declare ForRun on Scaled itself"
	Process
	Gain float64
}

// Amplified embeds a process and declares its own ForRun over the
// whole struct. Clean.
type Amplified struct {
	Process
	Gain float64
}

// ForRun copies the whole struct for one run.
func (a *Amplified) ForRun(stream func() *geom.RNG) delay.ServiceProcess {
	c := *a
	c.Reseed(stream())
	return &c
}

// RunScoped's generator is constructed fresh inside each run, so the
// contract is waived with a reasoned directive.
//
//qarv:allow reseed run-scoped: constructed fresh per run, never shared
type RunScoped struct {
	rng *geom.RNG
}

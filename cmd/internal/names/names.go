// Package names maps the CLI-facing allocator, policy and -net network
// grammars shared by qarvsim, qarvfleet, and qarvsweep onto the qarv
// facade, so the commands parse one grammar, print one enumeration in
// flag help, and fail with errors that list every valid name.
package names

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"qarv"
)

// allocSeedSalt decorrelates a learning allocator's arm draws from the
// run's other seeded streams.
const allocSeedSalt = 0x616c6c6f63 // "alloc"

// Allocator resolves a CLI allocator name — static builtins or
// parameterized learners — and seeds any learning allocator from the
// run seed, so repeated runs replay the same learned trajectory.
func Allocator(name string, seed uint64) (qarv.Allocator, error) {
	a, err := qarv.AllocatorByName(name)
	if err != nil {
		return nil, err
	}
	if r, ok := a.(interface{ Reseed(*qarv.RNG) }); ok {
		r.Reseed(qarv.NewRNG(seed ^ allocSeedSalt))
	}
	return a, nil
}

// AllocatorUsage enumerates every allocator name for flag help.
func AllocatorUsage() string { return strings.Join(qarv.AllocatorNames(), ", ") }

// PolicyUsage enumerates every policy name Policy accepts for flag
// help: the sweep grammar plus qarvsim's fixed-depth form.
func PolicyUsage() string {
	return strings.Join(qarv.SweepPolicyNames(), ", ") + ", fixed:N"
}

// Spec resolves a sweep policy token; errors enumerate the grammar.
func Spec(name string) (qarv.PolicySpec, error) { return qarv.SweepPolicyByName(name) }

// Policy builds a runnable policy over a calibrated scenario: the Spec
// grammar plus "fixed:N", with vOverride (when positive) replacing the
// calibrated V of the proposed controller; 0 keeps the calibration, and
// a negative or non-finite vOverride is an error. Stochastic policies
// draw from a stream derived from seed.
func Policy(scn *qarv.Scenario, name string, vOverride float64, seed uint64) (qarv.Policy, error) {
	if vOverride < 0 || math.IsNaN(vOverride) || math.IsInf(vOverride, 0) {
		return nil, fmt.Errorf("bad V override %v: want a positive finite V, or 0 for the calibrated one", vOverride)
	}
	switch {
	case name == "proposed" && vOverride > 0:
		return scn.ControllerWithV(vOverride)
	case strings.HasPrefix(name, "fixed:"):
		d, err := strconv.Atoi(strings.TrimPrefix(name, "fixed:"))
		if err != nil {
			return nil, fmt.Errorf("bad fixed depth %q: %w", name, err)
		}
		return &qarv.FixedDepth{Depth: d}, nil
	}
	spec, err := qarv.SweepPolicyByName(name)
	if err != nil {
		return nil, fmt.Errorf("%w (or fixed:N)", err)
	}
	return spec.New(scn, qarv.NewRNG(seed))
}

// List splits a comma-separated flag value, trimming whitespace and
// dropping empty entries.
func List(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// NetworkUsage enumerates the -net class names of qarvsim and qarvfleet
// for flag help. qarvsweep's net axis resolves its bare classes here too.
const NetworkUsage = "static, markov, trace[:FILE], handoff"

// Network resolves a -net class token to its network shape: static (or
// empty; no factor, the service stands unmodulated), markov (the
// qarv.DefaultMarkovFactor chain), trace[:FILE] (the built-in diurnal
// factor trace, or FILE peak-normalized) or handoff (the
// default mobility factor process). A trace file is loaded once, here;
// the trace is a pure function of the slot, so every run shares it.
func Network(token string) (qarv.SweepNetwork, error) {
	traceFile := ""
	if file, ok := strings.CutPrefix(token, "trace:"); ok {
		token, traceFile = "trace", file
	}
	switch token {
	case "", "static":
		return qarv.NetworkStatic(), nil
	case "markov":
		return qarv.SweepNetwork{Name: token, Factor: qarv.DefaultMarkovFactor(nil)}, nil
	case "trace":
		tb, err := qarv.LoadFactorTrace(traceFile)
		if err != nil {
			return qarv.SweepNetwork{}, err
		}
		return qarv.NetworkTraceShape(tb), nil
	case "handoff":
		return qarv.NetworkHandoff(), nil
	}
	return qarv.SweepNetwork{}, fmt.Errorf("unknown network class %q (want %s)", token, NetworkUsage)
}

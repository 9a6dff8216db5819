// Package learn is the online-learning layer on top of the static
// control plane: allocators that adapt the shared-edge budget split
// from observed outcomes, and a policy wrapper that predicts where the
// backlog is heading before the controller decides a depth.
//
// Two allocators implement alloc.Allocator plus the alloc.Learner
// feedback interface:
//
//   - Bandit runs EXP3 over a discrete set of share configurations
//     (backlog-tilt exponents spanning equal-split to max-weight-like
//     splits), with reward = mean observed per-device utility minus a
//     backlog penalty — after Chen et al., "Learn to Optimize Resource
//     Allocation under QoS Constraint of AR" (arXiv:2501.16186).
//   - Gradient steps a weight vector on the per-device utility
//     deficit and backlog pressure each slot, projected back onto the
//     simplex with a starvation floor.
//
// Predictive implements policy.Policy by maintaining an EWMA
// constant-velocity model over the observed backlog trajectory and
// extrapolating one control-loop delay (RTT) ahead before delegating
// to the wrapped controller — after the predictive-display
// telesurgery work (arXiv:1809.08627). Lagged is its evaluation
// counterpart: it delays the backlog observation by a fixed number of
// slots, modeling the stale state a remote controller actually sees.
//
// Everything here honors the repo's determinism contracts: the only
// randomness is a *geom.RNG behind Reseed (machine-checked by the
// reseed analyzer), and the package is in qarvcheck's
// deterministic set. The package registers its allocators with
// alloc.Register at init, so "bandit[:ARMS]" and "gradient[:STEP]"
// resolve through alloc.ByName wherever this package is linked in
// (the qarv facade, the experiments engine, and every CLI).
package learn

import (
	"fmt"
	"strconv"

	"qarv/internal/alloc"
)

// Defaults for the registered name grammar: "bandit" alone means
// DefaultArms arms, "gradient" alone means DefaultStep.
const (
	// DefaultArms is the bandit's arm count when "bandit" carries no
	// parameter.
	DefaultArms = 8
	// DefaultStep is the gradient allocator's base step size when
	// "gradient" carries no parameter.
	DefaultStep = 0.2
)

func init() {
	alloc.Register("bandit", alloc.Extension{
		Usage:     "bandit[:ARMS]",
		Canonical: fmt.Sprintf("bandit:%d", DefaultArms),
		New: func(param string) (alloc.Allocator, error) {
			arms := DefaultArms
			if param != "" {
				n, err := strconv.Atoi(param)
				if err != nil || n < 1 {
					return nil, fmt.Errorf("bad arm count %q (want a positive integer)", param)
				}
				arms = n
			}
			return NewBandit(arms), nil
		},
	})
	alloc.Register("gradient", alloc.Extension{
		Usage:     "gradient[:STEP]",
		Canonical: "gradient:" + strconv.FormatFloat(DefaultStep, 'g', -1, 64),
		New: func(param string) (alloc.Allocator, error) {
			step := DefaultStep
			if param != "" {
				s, err := strconv.ParseFloat(param, 64)
				if err != nil || s <= 0 {
					return nil, fmt.Errorf("bad step size %q (want a positive float)", param)
				}
				step = s
			}
			return NewGradient(step), nil
		},
	})
}

package qarv

import (
	"context"
	"fmt"

	"qarv/internal/experiments"
)

// SessionPool runs a batch of sessions concurrently over a fixed-size
// worker pool with deterministic result ordering: reports[i] always
// belongs to the i-th runner regardless of scheduling, so a concurrent
// sweep is byte-identical to the sequential loop it replaces (sessions
// must not share stateful policies or RNGs — give each its own, as
// NewSession-per-point sweeps naturally do).
//
// The first session error cancels the shared context, aborting the
// in-flight runs and skipping the unstarted ones, errgroup-style.
type SessionPool struct {
	workers int
	runners []Runner
}

// NewSessionPool builds a pool over the given runners. workers bounds
// concurrency; <= 0 takes GOMAXPROCS.
func NewSessionPool(workers int, runners ...Runner) *SessionPool {
	return &SessionPool{workers: workers, runners: runners}
}

// Add appends runners to the pool (not safe during Run).
func (p *SessionPool) Add(runners ...Runner) { p.runners = append(p.runners, runners...) }

// Len reports how many runners the pool holds.
func (p *SessionPool) Len() int { return len(p.runners) }

// Run executes every runner and returns their reports in submission
// order. On the first error the remaining work is canceled and that
// error (annotated with the failing session's index) is returned.
func (p *SessionPool) Run(ctx context.Context) ([]*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	reports := make([]*Report, len(p.runners))
	err := experiments.RunPool(ctx, p.workers, len(p.runners), func(ctx context.Context, i int) error {
		rep, err := p.runners[i].Run(ctx)
		if err != nil {
			return fmt.Errorf("qarv: session %d: %w", i, err)
		}
		reports[i] = rep
		return nil
	})
	if err != nil {
		return nil, err
	}
	return reports, nil
}

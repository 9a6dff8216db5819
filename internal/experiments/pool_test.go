package experiments

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

func TestRunPoolFirstErrorCancels(t *testing.T) {
	// One worker runs the jobs in feed order: job 0 fails, which cancels
	// the context every later job is handed before it starts.
	boom := errors.New("boom")
	live := 0
	err := RunPool(context.Background(), 1, 4, func(ctx context.Context, i int) error {
		if i == 0 {
			return fmt.Errorf("job %d: %w", i, boom)
		}
		if ctx.Err() == nil {
			live++
		}
		return ctx.Err()
	})
	if !errors.Is(err, boom) {
		t.Fatalf("RunPool = %v, want the failing job's error", err)
	}
	if live != 0 {
		t.Errorf("%d jobs ran uncanceled after the first error", live)
	}
}

// Regression: a cancellation-shaped failure latched first must not mask
// the root-cause job error — RunPool prefers the first non-context error.
func TestRunPoolRootCauseErrorPreferred(t *testing.T) {
	// Job 0 is fed first and parks until the pool is canceled, so job 1's
	// context-wrapped failure is always latched first (and cancels the
	// pool); job 0's real error arrives strictly afterwards and must
	// replace it.
	err := RunPool(context.Background(), 2, 2, func(ctx context.Context, i int) error {
		if i == 0 {
			<-ctx.Done()
			return errors.New("device exploded")
		}
		return fmt.Errorf("sim: canceled at slot 12: %w", context.Canceled)
	})
	if err == nil {
		t.Fatal("pool swallowed the errors")
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("root cause masked by a cancellation: %v", err)
	}
	if err.Error() != "device exploded" {
		t.Fatalf("error %q does not carry the root cause", err)
	}
}

func TestRunPoolLateCancelKeepsCompletedBatch(t *testing.T) {
	// A cancel arriving after every job finished must not fail the batch
	// (errgroup semantics: only job errors and unstarted work do).
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make([]bool, 2)
	if err := RunPool(ctx, 1, 2, func(_ context.Context, i int) error {
		done[i] = true
		return nil
	}); err != nil {
		t.Fatalf("pool = %v", err)
	}
	cancel()
	if !done[0] || !done[1] {
		t.Fatalf("jobs done = %v", done)
	}

	// Whereas a pre-canceled context fails the pool, whether or not the
	// job was fed before the feed saw the cancellation.
	pre, preCancel := context.WithCancel(context.Background())
	preCancel()
	if err := RunPool(pre, 1, 1, func(ctx context.Context, _ int) error { return ctx.Err() }); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-canceled pool = %v, want context.Canceled", err)
	}
}

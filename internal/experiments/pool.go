package experiments

import (
	"context"
	"errors"
	"runtime"
	"sync"
)

// RunPool runs job(ctx, i) for every i in [0, n) over at most workers
// goroutines (<= 0 takes GOMAXPROCS), feeding indices in order. Jobs
// store their own results by index, so output order never depends on
// scheduling. The first job error cancels the ctx handed to every job
// and stops the feed; an error that is not a context cancellation is
// preferred over the cancellations it fans out to sibling jobs. If
// cancellation stops the feed before every index ran, RunPool returns
// ctx's error: the batch is incomplete. A cancel that arrives after
// every job finished cleanly discards nothing. This is the sweep
// engine's executor.
func RunPool(ctx context.Context, workers, n int, job func(ctx context.Context, i int) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)

	jobs := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if err := job(ctx, i); err != nil {
					mu.Lock()
					if firstErr == nil || (isContextError(firstErr) && !isContextError(err)) {
						firstErr = err
						cancel()
					}
					mu.Unlock()
				}
			}
		}()
	}
	fed := 0
feed:
	for i := 0; i < n; i++ {
		select {
		case jobs <- i:
			fed++
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	if fed < n {
		return ctx.Err()
	}
	return nil
}

// isContextError reports whether err is (or wraps) a context
// cancellation/deadline error.
func isContextError(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

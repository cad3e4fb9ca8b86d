// Package par is the pipeline's parallel-execution substrate: bounded,
// order-preserving generic fan-outs (Map cancels on the first failure,
// MapAll runs every item), one-shot stage futures (Go/Task), and a
// deterministic RNG-splitting scheme that derives an independent random
// stream per work item from the study seed and the item's key.
//
// Every fan-out in the study pipeline (corpus preparation, survey
// administration, metric evaluation, artifact rendering) goes through this
// package, so results are byte-identical at any worker count: work items
// never share mutable state or a random stream, and outputs are assembled
// in input order regardless of completion order.
//
// The worker count travels in the context via WithJobs/JobsFrom, so CLIs
// set it once (-jobs) and every stage below picks it up without threading
// an extra parameter through the pipeline.
package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

type ctxKey int

const jobsKey ctxKey = iota

// WithJobs returns a context carrying the worker count for the pipeline
// fan-outs below it. Non-positive n leaves the context unchanged.
func WithJobs(ctx context.Context, n int) context.Context {
	if n <= 0 {
		return ctx
	}
	return context.WithValue(ctx, jobsKey, n)
}

// JobsFrom returns the context's worker count, defaulting to
// runtime.GOMAXPROCS(0) when none was set.
func JobsFrom(ctx context.Context) int {
	if n, ok := ctx.Value(jobsKey).(int); ok && n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// clampJobs bounds the worker count to [1, n] for n work items.
func clampJobs(jobs, n int) int {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > n {
		jobs = n
	}
	if jobs < 1 {
		jobs = 1
	}
	return jobs
}

// isCancellation reports whether err is context-cancellation fallout rather
// than a failure in its own right. This is a heuristic — an item error that
// wraps context.Canceled for unrelated reasons is classified as fallout —
// but it only changes which error wins when a genuine failure exists
// elsewhere, which is exactly the masking case being prevented.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Map runs f over every item on at most jobs workers and returns the
// results in input order. The first failure cancels outstanding work
// (items not yet started are skipped) and Map returns the genuine failure
// with the lowest input index, so the reported error depends neither on
// completion order nor on cancellation fallout: an item that observed the
// post-failure cancellation and returned context.Canceled never outranks
// the failure that caused it. A jobs value ≤ 0 uses runtime.GOMAXPROCS(0);
// jobs == 1 is the exact sequential loop.
func Map[T, R any](ctx context.Context, jobs int, items []T, f func(ctx context.Context, idx int, item T) (R, error)) ([]R, error) {
	results := make([]R, len(items))
	if len(items) == 0 {
		return results, ctx.Err()
	}
	jobs = clampJobs(jobs, len(items))
	if jobs == 1 {
		for i := range items {
			if err := ctx.Err(); err != nil {
				return results, err
			}
			r, err := guard(ctx, i, items[i], f)
			if err != nil {
				return results, err
			}
			results[i] = r
		}
		return results, nil
	}

	errs := runWorkers(ctx, jobs, items, func(ctx context.Context, i int, item T) error {
		r, err := guard(ctx, i, item, f)
		if err != nil {
			return err
		}
		results[i] = r
		return nil
	}, true)
	if err := firstMapError(errs); err != nil {
		return results, err
	}
	return results, ctx.Err()
}

// firstMapError picks Map's reported error from the per-item errors. A
// genuine failure cancels the worker context, so items already in flight
// can come back with that context's Canceled at a lower input index than
// the failure itself; preferring the lowest-index non-cancellation error
// keeps the real failure from being masked by its own fallout. Only when
// every recorded error is cancellation-class (the caller's own context was
// cancelled) does the lowest-index cancellation win.
func firstMapError(errs []error) error {
	var fallback error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !isCancellation(err) {
			return err
		}
		if fallback == nil {
			fallback = err
		}
	}
	return fallback
}

// MapAll runs f over every item on at most jobs workers, never cancelling
// on item failure, and returns the results alongside the per-item errors
// (both in input order). Items skipped because the surrounding context was
// cancelled report the context error. Callers that want one error join
// the non-nil entries — errors.Join preserves the input order.
func MapAll[T, R any](ctx context.Context, jobs int, items []T, f func(ctx context.Context, idx int, item T) (R, error)) ([]R, []error) {
	results := make([]R, len(items))
	errs := make([]error, len(items))
	if len(items) == 0 {
		return results, errs
	}
	jobs = clampJobs(jobs, len(items))
	if jobs == 1 {
		for i := range items {
			if err := ctx.Err(); err != nil {
				errs[i] = err
				continue
			}
			results[i], errs[i] = guard(ctx, i, items[i], f)
		}
		return results, errs
	}
	got := runWorkers(ctx, jobs, items, func(ctx context.Context, i int, item T) error {
		r, err := guard(ctx, i, item, f)
		results[i] = r
		return err
	}, false)
	copy(errs, got)
	return results, errs
}

// guard converts a worker panic into an error carrying the stack, so a
// panicking work item surfaces as a pipeline failure instead of tearing
// down the process from a goroutine.
func guard[T, R any](ctx context.Context, i int, item T, f func(ctx context.Context, idx int, item T) (R, error)) (r R, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("par: worker panic on item %d: %v\n%s", i, p, debug.Stack())
		}
	}()
	return f(ctx, i, item)
}

// runWorkers fans items out to jobs goroutines pulling indices from a
// shared channel and returns the per-item errors in input order. With
// cancelOnError, the first failure stops the index feed so remaining items
// are skipped (their error stays nil); without it, cancellation only
// follows the caller's context. Either way, items skipped because the
// CALLER's context ended — whether their index was handed to a worker or
// never left the feed — report the caller's context error, never the
// internal worker context's.
func runWorkers[T any](ctx context.Context, jobs int, items []T, f func(ctx context.Context, i int, item T) error, cancelOnError bool) []error {
	errs := make([]error, len(items))
	// done marks indices a worker fully handled (ran f or recorded a skip);
	// indices the feed never delivered stay false and are back-filled with
	// the caller's context error below. Each index is touched by exactly
	// one worker, and wg.Wait orders those writes before the back-fill.
	done := make([]bool, len(items))
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()

	idxCh := make(chan int)
	var feed sync.WaitGroup
	feed.Add(1)
	go func() {
		defer feed.Done()
		defer close(idxCh)
		for i := range items {
			select {
			case idxCh <- i:
			case <-wctx.Done():
				return
			}
		}
	}()

	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				if err := ctx.Err(); err != nil {
					// The caller's own context ended: record its error, so
					// skipped items report the cancellation that skipped
					// them (never the internal wctx's).
					mu.Lock()
					errs[i] = err
					mu.Unlock()
					done[i] = true
					continue
				}
				if cancelOnError && wctx.Err() != nil {
					// Internal cancellation after another item's failure:
					// skip silently (error stays nil) so the genuine
					// failure is the only error the caller sees.
					done[i] = true
					continue
				}
				err := f(wctx, i, items[i])
				done[i] = true
				if err != nil {
					mu.Lock()
					errs[i] = err
					mu.Unlock()
					if cancelOnError {
						cancel()
					}
				}
			}
		}()
	}
	wg.Wait()
	feed.Wait()
	// Back-fill items the feed never delivered: if the caller's context
	// ended they were skipped by that cancellation and report it; after an
	// internal first-error stop they stay nil, like every other skip.
	if err := ctx.Err(); err != nil {
		for i := range errs {
			if !done[i] && errs[i] == nil {
				errs[i] = err
			}
		}
	}
	return errs
}

// Chunks splits [0, n) into at most k contiguous [lo, hi) ranges of
// near-equal size — the work units for data-parallel loops (matrix rows,
// token ranges) where spawning one goroutine per element would drown the
// useful work in scheduling overhead.
func Chunks(n, k int) [][2]int {
	if n <= 0 {
		return nil
	}
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	out := make([][2]int, 0, k)
	size, rem := n/k, n%k
	lo := 0
	for i := 0; i < k; i++ {
		hi := lo + size
		if i < rem {
			hi++
		}
		out = append(out, [2]int{lo, hi})
		lo = hi
	}
	return out
}

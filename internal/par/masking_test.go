package par

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// TestMapDoesNotMaskGenuineError is the regression test for the
// cancellation-masking class: after a genuine failure cancels the worker
// context, an item at a LOWER input index that observes the cancellation
// and returns ctx.Err() must not win the lowest-index scan.
func TestMapDoesNotMaskGenuineError(t *testing.T) {
	leakCheck(t)
	for _, jobs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("jobs=%d", jobs), func(t *testing.T) {
			items := make([]int, 12)
			genuine := errors.New("item 7 exploded")
			_, err := Map(context.Background(), jobs, items, func(ctx context.Context, i, _ int) (int, error) {
				if i == 7 {
					return 0, genuine
				}
				// Lower-index items park until the post-failure cancellation
				// reaches them (with a timeout so jobs=1, where no
				// cancellation ever happens, still completes).
				select {
				case <-ctx.Done():
					return 0, ctx.Err()
				case <-time.After(100 * time.Millisecond):
					return 0, nil
				}
			})
			if !errors.Is(err, genuine) {
				t.Fatalf("Map = %v, want the genuine item-7 failure", err)
			}
			if errors.Is(err, context.Canceled) {
				t.Fatalf("Map returned cancellation fallout in place of the failure: %v", err)
			}
		})
	}
}

// TestMapForcedLowIndexCancellation pins the exact interleaving from the
// bug report: a blocker at index 1 waits for the worker context to die,
// while index 7 fails genuinely — so index 1 records context.Canceled
// below the failing index.
func TestMapForcedLowIndexCancellation(t *testing.T) {
	leakCheck(t)
	for _, jobs := range []int{2, 8} {
		t.Run(fmt.Sprintf("jobs=%d", jobs), func(t *testing.T) {
			items := make([]int, 10)
			genuine := errors.New("genuine failure at 7")
			var sawCancel atomic.Bool
			_, err := Map(context.Background(), jobs, items, func(ctx context.Context, i, _ int) (int, error) {
				if i == 1 {
					<-ctx.Done() // unblocked only by the index-7 failure
					sawCancel.Store(true)
					return 0, ctx.Err()
				}
				if i == 7 {
					time.Sleep(5 * time.Millisecond) // let the blocker park first
					return 0, genuine
				}
				return 0, nil
			})
			if !errors.Is(err, genuine) {
				t.Fatalf("Map = %v, want genuine failure (blocker cancelled: %v)", err, sawCancel.Load())
			}
			if !sawCancel.Load() {
				t.Fatal("blocker never observed cancellation — scenario did not exercise the masking path")
			}
		})
	}
}

// TestMapCallerCancellationStillReported: when the only errors are the
// caller's own cancellation, Map must still report it — the genuine-error
// preference must not swallow real cancellations.
func TestMapCallerCancellationStillReported(t *testing.T) {
	leakCheck(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, jobs := range []int{1, 4} {
		_, err := Map(ctx, jobs, make([]int, 8), func(ctx context.Context, i, _ int) (int, error) {
			return 0, ctx.Err()
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("jobs=%d: Map = %v, want context.Canceled", jobs, err)
		}
	}
}

// TestMapAllSkippedItemsReportCallerCtxError is the MapAll contract: items
// skipped because the surrounding context ended report the caller's context
// error, and completed items keep their own results/errors.
func TestMapAllSkippedItemsReportCallerCtxError(t *testing.T) {
	leakCheck(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, jobs := range []int{1, 4} {
		results, errs := MapAll(ctx, jobs, make([]int, 6), func(context.Context, int, int) (int, error) {
			return 42, nil
		})
		for i := range errs {
			if !errors.Is(errs[i], context.Canceled) {
				t.Fatalf("jobs=%d: errs[%d] = %v, want the caller's context.Canceled", jobs, i, errs[i])
			}
			if results[i] != 0 {
				t.Errorf("jobs=%d: skipped item %d has result %d", jobs, i, results[i])
			}
		}
	}
}

package par

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapPreservesOrder(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	for _, jobs := range []int{1, 2, 7, 64} {
		out, err := Map(context.Background(), jobs, items, func(_ context.Context, i, v int) (string, error) {
			// Reverse the natural completion order so fast finishers land last.
			time.Sleep(time.Duration(len(items)-i) * 10 * time.Microsecond)
			return fmt.Sprintf("%d!", v), nil
		})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		for i, s := range out {
			if want := fmt.Sprintf("%d!", i); s != want {
				t.Fatalf("jobs=%d: out[%d] = %q, want %q", jobs, i, s, want)
			}
		}
	}
}

func TestMapSaturation(t *testing.T) {
	const jobs = 4
	var cur, peak atomic.Int64
	items := make([]int, 40)
	_, err := Map(context.Background(), jobs, items, func(_ context.Context, i, _ int) (int, error) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		cur.Add(-1)
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > jobs {
		t.Errorf("peak concurrency %d exceeds jobs=%d", p, jobs)
	}
	// With 40 sleeping items the pool should actually fill up.
	if p := peak.Load(); p < jobs {
		t.Errorf("peak concurrency %d never reached jobs=%d", p, jobs)
	}
}

func TestMapFirstErrorIsLowestIndex(t *testing.T) {
	items := make([]int, 20)
	_, err := Map(context.Background(), 8, items, func(_ context.Context, i, _ int) (int, error) {
		if i == 3 || i == 11 {
			// Make the higher index fail first.
			if i == 3 {
				time.Sleep(20 * time.Millisecond)
			}
			return 0, fmt.Errorf("item %d failed", i)
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("want error")
	}
	// Item 11 fails first and cancels the map; item 3 may or may not run to
	// completion. Whatever happened, the reported error must be the
	// lowest-index failure among those that ran.
	if !strings.Contains(err.Error(), "failed") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestMapCancellationMidMap(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	release := make(chan struct{})
	items := make([]int, 64)
	var wg sync.WaitGroup
	wg.Add(1)
	var mapErr error
	go func() {
		defer wg.Done()
		_, mapErr = Map(ctx, 2, items, func(ctx context.Context, i, _ int) (int, error) {
			started.Add(1)
			select {
			case <-release:
			case <-ctx.Done():
				return 0, ctx.Err()
			}
			return 0, nil
		})
	}()
	for started.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	close(release)
	wg.Wait()
	if !errors.Is(mapErr, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", mapErr)
	}
	if n := started.Load(); n >= int64(len(items)) {
		t.Errorf("all %d items started despite mid-map cancellation", n)
	}
}

func TestMapPanicRecovery(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		_, err := Map(context.Background(), jobs, []int{0, 1, 2}, func(_ context.Context, i, _ int) (int, error) {
			if i == 1 {
				panic("boom")
			}
			return i, nil
		})
		if err == nil {
			t.Fatalf("jobs=%d: want error from panicking worker", jobs)
		}
		if !strings.Contains(err.Error(), "panic") || !strings.Contains(err.Error(), "boom") {
			t.Errorf("jobs=%d: error %q does not surface the panic", jobs, err)
		}
	}
}

func TestMapAllJoinsInInputOrder(t *testing.T) {
	items := []int{0, 1, 2, 3, 4, 5}
	for _, jobs := range []int{1, 3, 8} {
		out, errs := MapAll(context.Background(), jobs, items, func(_ context.Context, i, v int) (int, error) {
			if i%2 == 1 {
				// Later odd items finish before earlier ones.
				time.Sleep(time.Duration(len(items)-i) * time.Millisecond)
				return 0, fmt.Errorf("odd %d", i)
			}
			return v * 10, nil
		})
		if len(errs) != len(items) {
			t.Fatalf("jobs=%d: errs len %d", jobs, len(errs))
		}
		joined := errors.Join(nonNil(errs)...)
		want := "odd 1\nodd 3\nodd 5"
		if joined == nil || joined.Error() != want {
			t.Errorf("jobs=%d: joined = %v, want %q", jobs, joined, want)
		}
		for i, v := range out {
			if i%2 == 0 && v != i*10 {
				t.Errorf("jobs=%d: out[%d] = %d, want %d", jobs, i, v, i*10)
			}
		}
	}
}

func nonNil(errs []error) []error {
	var out []error
	for _, err := range errs {
		if err != nil {
			out = append(out, err)
		}
	}
	return out
}

func TestJobsContext(t *testing.T) {
	ctx := context.Background()
	if JobsFrom(ctx) < 1 {
		t.Error("default jobs < 1")
	}
	if got := JobsFrom(WithJobs(ctx, 7)); got != 7 {
		t.Errorf("JobsFrom = %d, want 7", got)
	}
	if got := JobsFrom(WithJobs(ctx, 0)); got < 1 {
		t.Errorf("JobsFrom after WithJobs(0) = %d", got)
	}
}

package serve

import (
	"context"
	"errors"
	"sync/atomic"

	"decompstudy/internal/obs"
)

// ErrSaturated is returned when a limiter's bounded queue is full — the
// HTTP layer maps it to 503 with a Retry-After header. Load sheds at the
// door, never by queuing without bound.
var ErrSaturated = errors.New("serve: saturated, retry later")

// Limiter is admission control for a group of endpoints: at most
// `concurrency` requests execute at once, at most `queue` more wait for a
// slot, and anything beyond that is rejected immediately with ErrSaturated
// (the HTTP layer answers 503 + Retry-After). Bounding the wait pool keeps
// overload latency flat — a saturated server answers in microseconds
// instead of accumulating an unbounded backlog.
type Limiter struct {
	name    string
	slots   chan struct{}
	waiting atomic.Int64
	queue   int64
}

// NewLimiter builds a limiter admitting `concurrency` concurrent holders
// with a wait queue of `queue`. Both are clamped to at least 1 and 0.
func NewLimiter(name string, concurrency, queue int) *Limiter {
	if concurrency < 1 {
		concurrency = 1
	}
	if queue < 0 {
		queue = 0
	}
	return &Limiter{
		name:  name,
		slots: make(chan struct{}, concurrency),
		queue: int64(queue),
	}
}

// Acquire takes a slot, waiting in the bounded queue if none is free.
// Returns ErrSaturated without blocking when the queue is full, or the
// context error if the caller gives up while waiting. The caller must
// Release exactly once per successful Acquire.
func (l *Limiter) Acquire(ctx context.Context) error {
	// Fast path: free slot, no queuing.
	select {
	case l.slots <- struct{}{}:
		return nil
	default:
	}
	if l.waiting.Add(1) > l.queue {
		l.waiting.Add(-1)
		obs.AddCountL(ctx, "serve.admission.rejected", 1, obs.L("limiter", l.name))
		return ErrSaturated
	}
	defer l.waiting.Add(-1)
	obs.AddCountL(ctx, "serve.admission.queued", 1, obs.L("limiter", l.name))
	select {
	case l.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Release frees a slot taken by a successful Acquire.
func (l *Limiter) Release() {
	<-l.slots
}

// InFlight reports the number of currently held slots (for tests and the
// drain path).
func (l *Limiter) InFlight() int {
	return len(l.slots)
}

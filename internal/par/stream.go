package par

import (
	"context"
	"fmt"
	"runtime/debug"
)

// Task is a one-shot future: Go starts the function on its own goroutine
// and Wait blocks for the result. It is the stage-level counterpart to the
// data-parallel Map family — the streaming pipeline uses one Task per
// shared stage (embedding training, recovery training, survey) so
// independent stages overlap instead of running behind barriers, while
// per-item fan-outs keep going through Map/MapAll.
//
// Tasks run outside the Map worker budget: they represent the handful of
// pipeline stages, not per-item work, so a stage waiting on another stage
// can never deadlock against a saturated Map fan-out.
type Task[T any] struct {
	done chan struct{}
	val  T
	err  error
}

// Go starts fn immediately on a new goroutine. A panic in fn surfaces as
// an error from Wait (carrying the stack), as a panicking Map item does,
// instead of tearing down the process.
func Go[T any](ctx context.Context, fn func(context.Context) (T, error)) *Task[T] {
	t := &Task[T]{done: make(chan struct{})}
	go func() {
		defer close(t.done)
		defer func() {
			if r := recover(); r != nil {
				t.err = fmt.Errorf("par: task panic: %v\n%s", r, debug.Stack())
			}
		}()
		t.val, t.err = fn(ctx)
	}()
	return t
}

// Wait blocks until the task finishes or the caller's context ends,
// whichever comes first, and returns the task's result. Multiple
// goroutines may Wait on the same task; all observe the same result.
// A context-cancelled Wait does not stop the task — its result stays
// available to other waiters.
func (t *Task[T]) Wait(ctx context.Context) (T, error) {
	select {
	case <-t.done:
		return t.val, t.err
	case <-ctx.Done():
		var zero T
		return zero, ctx.Err()
	}
}

// Done returns a channel closed when the task has finished.
func (t *Task[T]) Done() <-chan struct{} { return t.done }

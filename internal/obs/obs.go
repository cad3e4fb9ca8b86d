// Package obs is the project's stdlib-only observability layer: hierarchical
// span tracing with an in-memory collector (rendered as a per-stage timing
// tree or exported as Chrome trace-event JSON), a metrics registry
// (counters, gauges, fixed-bucket histograms) with text and JSON snapshots,
// and log/slog-based structured logging that carries span IDs through
// context.Context.
//
// Telemetry is opt-in per run. A handle travels in the context:
//
//	o := obs.New()
//	ctx := obs.With(context.Background(), o)
//	ctx, sp := obs.StartSpan(ctx, "corpus.Prepare", obs.KV("snippet", "AEEK"))
//	defer sp.End()
//	obs.AddCount(ctx, "corpus.prepare.calls", 1)
//
// Every entry point is nil-safe: with no handle in the context (or a
// zero-value handle) the calls reduce to a single context lookup and no
// allocation, so instrumented hot paths cost nothing when telemetry is off.
package obs

import (
	"context"
	"log/slog"
	"time"
)

type ctxKey int

const (
	handleKey ctxKey = iota
	spanKey
)

// Obs bundles the three telemetry facilities. Any field may be nil; a
// zero-value Obs disables everything.
type Obs struct {
	// Trace collects spans for the timing tree and Chrome trace export.
	Trace *Collector
	// Metrics is the counter/gauge/histogram registry.
	Metrics *Registry
	// Log receives structured log records (nil = discard).
	Log *slog.Logger
}

// New returns a handle with tracing and metrics enabled and logging
// discarded.
func New() *Obs {
	return &Obs{Trace: NewCollector(), Metrics: NewRegistry()}
}

// Enabled reports whether any facility is active.
func (o *Obs) Enabled() bool {
	return o != nil && (o.Trace != nil || o.Metrics != nil || o.Log != nil)
}

// With attaches the handle to the context. A nil or disabled handle returns
// the context unchanged, keeping the disabled fast path a single Value call.
func With(ctx context.Context, o *Obs) context.Context {
	if !o.Enabled() {
		return ctx
	}
	return context.WithValue(ctx, handleKey, o)
}

// From returns the handle attached to the context, or nil.
func From(ctx context.Context) *Obs {
	o, _ := ctx.Value(handleKey).(*Obs)
	return o
}

// StartSpan opens a child span of the context's current span and returns a
// context carrying it. With tracing disabled it returns (ctx, nil); the nil
// *Span accepts End and SetAttr as no-ops.
func StartSpan(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	o := From(ctx)
	if o == nil || o.Trace == nil {
		return ctx, nil
	}
	parent, _ := ctx.Value(spanKey).(*Span)
	sp := o.Trace.start(name, parent, attrs)
	return context.WithValue(ctx, spanKey, sp), sp
}

// Start opens a span without rebinding the context — for callers that only
// need `defer obs.Start(ctx, "stage").End()`. Children started from the same
// ctx attach to the ctx's current span, not to this one.
func Start(ctx context.Context, name string, attrs ...Attr) *Span {
	o := From(ctx)
	if o == nil || o.Trace == nil {
		return nil
	}
	parent, _ := ctx.Value(spanKey).(*Span)
	return o.Trace.start(name, parent, attrs)
}

// CurrentSpan returns the context's active span, or nil.
func CurrentSpan(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey).(*Span)
	return sp
}

// AddCount adds delta to the named counter (no-op without a registry).
func AddCount(ctx context.Context, name string, delta int64) {
	if o := From(ctx); o != nil && o.Metrics != nil {
		o.Metrics.Counter(name).Add(delta)
	}
}

// SetGauge sets the named gauge (no-op without a registry).
func SetGauge(ctx context.Context, name string, v float64) {
	if o := From(ctx); o != nil && o.Metrics != nil {
		o.Metrics.Gauge(name).Set(v)
	}
}

// Observe records v into the named histogram with the default buckets
// (no-op without a registry).
func Observe(ctx context.Context, name string, v float64) {
	if o := From(ctx); o != nil && o.Metrics != nil {
		o.Metrics.Histogram(name, nil).Observe(v)
	}
}

// ObserveDuration records d (in seconds) into the named histogram.
func ObserveDuration(ctx context.Context, name string, d time.Duration) {
	Observe(ctx, name, d.Seconds())
}

// AddCountL adds delta to the labeled counter series (no-op without a
// registry).
func AddCountL(ctx context.Context, name string, delta int64, labels ...Label) {
	if o := From(ctx); o != nil && o.Metrics != nil {
		o.Metrics.CounterL(name, labels...).Add(delta)
	}
}

// ObserveL records v into the labeled histogram series with the default
// buckets (no-op without a registry).
func ObserveL(ctx context.Context, name string, v float64, labels ...Label) {
	if o := From(ctx); o != nil && o.Metrics != nil {
		o.Metrics.HistogramL(name, nil, labels...).Observe(v)
	}
}

// Logger returns a logger that tags records with the context's span. It
// never returns nil; with logging disabled it returns a discard logger.
func Logger(ctx context.Context) *slog.Logger {
	o := From(ctx)
	if o == nil || o.Log == nil {
		return discardLogger
	}
	if sp := CurrentSpan(ctx); sp != nil {
		return o.Log.With(slog.Uint64("span", sp.ID), slog.String("stage", sp.Name))
	}
	return o.Log
}

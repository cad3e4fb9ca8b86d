package serve

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"decompstudy/internal/corpus"
	"decompstudy/internal/embed"
	"decompstudy/internal/modelstore"
	"decompstudy/internal/namerec"
	"decompstudy/internal/obs"
	"decompstudy/internal/par"
)

// Defaults for Options zero values.
const (
	DefaultBatchSize        = 64
	DefaultBatchDelay       = 2 * time.Millisecond
	DefaultQueue            = 256
	DefaultStudyConcurrency = 2
	DefaultStudyQueue       = 2
	DefaultEmbedDim         = 24 // the study default, so /study shares the store key
)

// Options configures a Server. Zero values mean the defaults above;
// Jobs zero means GOMAXPROCS.
type Options struct {
	// Jobs is the worker budget: batch flushes fan out over this many
	// workers, and in NoBatch mode this many requests compute at once —
	// the two modes always spend equal worker counts, so benchmark
	// comparisons isolate batching itself.
	Jobs int
	// BatchSize and BatchDelay bound a flush: it fires at BatchSize items
	// or BatchDelay after the first queued item, whichever comes first.
	BatchSize  int
	BatchDelay time.Duration
	// Queue bounds each endpoint's admission backlog; beyond it requests
	// are rejected with 503 + Retry-After.
	Queue int
	// StudyConcurrency and StudyQueue bound the heavyweight /v1/study
	// endpoint separately (a study run is ~10^4x an annotate request).
	StudyConcurrency int
	StudyQueue       int
	// NoBatch serves annotate/metrics per request under a plain
	// concurrency limiter instead of the batcher — the benchmark baseline
	// loadgen compares against.
	NoBatch bool
	// AllowFaultHeader honors X-Fault-Plan chaos headers. Off by default:
	// arbitrary callers must not be able to inject faults.
	AllowFaultHeader bool
	// EmbedDim overrides the metric embedding dimensionality (0 = 24).
	EmbedDim int
}

func (o Options) withDefaults() Options {
	if o.Jobs <= 0 {
		o.Jobs = runtime.GOMAXPROCS(0)
	}
	if o.BatchSize <= 0 {
		o.BatchSize = DefaultBatchSize
	}
	if o.BatchDelay <= 0 {
		o.BatchDelay = DefaultBatchDelay
	}
	if o.Queue <= 0 {
		o.Queue = DefaultQueue
	}
	if o.StudyConcurrency <= 0 {
		o.StudyConcurrency = DefaultStudyConcurrency
	}
	if o.StudyQueue <= 0 {
		o.StudyQueue = DefaultStudyQueue
	}
	if o.EmbedDim <= 0 {
		o.EmbedDim = DefaultEmbedDim
	}
	return o
}

// Server is the decompilation service: warm shared models, a coalescing
// batcher for annotate/metric requests, per-endpoint admission control,
// and the /debug telemetry surface, behind one http.Handler.
type Server struct {
	opts Options
	// base is the server-lifetime context all processing derives from:
	// telemetry handle, worker count, and model store attached; cancelled
	// only by Close. Request contexts never feed it, so one disconnect
	// cannot poison shared work.
	base   context.Context
	cancel context.CancelFunc
	o      *obs.Obs

	// embedModel and recModel are the warm models: trained once at
	// startup (or loaded from the content-addressed store), immutable
	// after, read lock-free by every request.
	embedModel *embed.Model
	recModel   *namerec.Model

	batch    *Batcher[workItem, any]
	pipeline *Limiter // decompile + lint
	work     *Limiter // annotate/metrics in NoBatch mode
	study    *Limiter

	mux      *http.ServeMux
	draining atomic.Bool
}

// NewServer warms the models and assembles the service. o carries the
// telemetry facilities (nil facilities degrade gracefully); store may be
// nil to train in-process without a cache. Warming is part of startup by
// design: the first request must never pay the training tax.
func NewServer(parent context.Context, o *obs.Obs, store *modelstore.Store, opts Options) (*Server, error) {
	if o == nil {
		o = &obs.Obs{}
	}
	opts = opts.withDefaults()
	base, cancel := context.WithCancel(par.WithJobs(obs.With(parent, o), opts.Jobs))
	if store != nil {
		base = modelstore.With(base, store)
	}
	s := &Server{
		opts:     opts,
		base:     base,
		cancel:   cancel,
		o:        o,
		pipeline: NewLimiter("pipeline", opts.Jobs, opts.Queue),
		work:     NewLimiter("work", opts.Jobs, opts.Queue),
		study:    NewLimiter("study", opts.StudyConcurrency, opts.StudyQueue),
	}
	if err := s.warmModels(base, store); err != nil {
		cancel()
		return nil, err
	}
	s.batch = NewBatcher[workItem, any](base, "work", opts.BatchSize, opts.Queue, opts.BatchDelay, s.processBatch)
	s.mux = s.routes()
	return s, nil
}

// warmModels trains (or loads via the store) the embedding and name
// recovery models before the server accepts traffic. A nil store trains
// directly.
func (s *Server) warmModels(ctx context.Context, store *modelstore.Store) error {
	ctx, sp := obs.StartSpan(ctx, "serve.warm")
	defer sp.End()
	ctxs, err := corpus.EmbeddingContexts()
	if err != nil {
		return fmt.Errorf("serve: warm embed corpus: %w", err)
	}
	em, err := store.EmbedModel(ctx, ctxs, &embed.Config{Dim: s.opts.EmbedDim})
	if err != nil {
		return fmt.Errorf("serve: warm embed model: %w", err)
	}
	rm, err := store.NamerecModel(ctx, corpus.TrainingSources(), corpus.TrainingFiles)
	if err != nil {
		return fmt.Errorf("serve: warm namerec model: %w", err)
	}
	s.embedModel, s.recModel = em, rm
	return nil
}

// Handler returns the service's HTTP surface: /healthz, the /v1 API, and
// the /debug telemetry endpoints.
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.Handle("/v1/decompile", s.wrap("decompile", s.handleDecompile))
	mux.Handle("/v1/annotate", s.wrap("annotate", s.handleAnnotate))
	mux.Handle("/v1/lint", s.wrap("lint", s.handleLint))
	mux.Handle("/v1/metrics", s.wrap("metrics", s.handleMetrics))
	mux.Handle("/v1/study", s.wrap("study", s.handleStudy))
	mux.Handle("/debug/", obs.NewDebugServer(s.o))
	return mux
}

// SetDraining flips /healthz to 503 so load balancers stop routing here.
// Call it before http.Server.Shutdown; in-flight and already-queued
// requests still complete.
func (s *Server) SetDraining() { s.draining.Store(true) }

// Close drains the batcher (queued items are flushed and answered) and
// cancels the server context. Call after http.Server.Shutdown has waited
// out in-flight requests.
func (s *Server) Close() {
	s.draining.Store(true)
	s.batch.Close()
	s.cancel()
}

// Draining reports whether shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

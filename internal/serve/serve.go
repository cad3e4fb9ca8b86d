// Package serve is the decompilation-as-a-service layer: an HTTP JSON API
// in front of the study pipeline where trained models are loaded once and
// amortized across thousands of requests. Every pipeline endpoint
// (annotate, metrics, decompile, lint) is admitted through one limiter —
// a bounded number of requests compute at once, a bounded queue waits,
// and beyond it the server answers 503 with Retry-After — so overload
// degrades into fast rejections instead of collapse.
//
// The package is transport-complete but process-agnostic: cmd/served wires
// it to a listener and signals, the httptest suite drives it in-process,
// and cmd/loadgen measures it from outside.
package serve

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sync/atomic"

	"decompstudy/internal/corpus"
	"decompstudy/internal/embed"
	"decompstudy/internal/modelstore"
	"decompstudy/internal/namerec"
	"decompstudy/internal/obs"
	"decompstudy/internal/par"
)

// Defaults for the served flags. Of these, only DefaultStudyConcurrency
// also stands in for a zero Options value.
const (
	DefaultQueue            = 256
	DefaultStudyConcurrency = 2
	DefaultStudyQueue       = 2
)

// DefaultEmbedDim is the metric embedding dimensionality: the study
// default, so /v1/study shares the warm model's store key.
const DefaultEmbedDim = 24

// Options configures a Server. A zero concurrency means its default
// (Jobs: GOMAXPROCS, StudyConcurrency: DefaultStudyConcurrency); a zero
// queue means no waiting room, so a request that finds every slot busy
// is rejected at once.
type Options struct {
	// Jobs is the worker budget: this many annotate, metrics, decompile
	// and lint requests compute at once.
	Jobs int
	// Queue bounds how many more of those requests wait for a slot;
	// beyond it requests are rejected with 503 + Retry-After.
	Queue int
	// StudyConcurrency and StudyQueue bound the heavyweight /v1/study
	// endpoint separately (a study run is ~10^4x an annotate request).
	StudyConcurrency int
	StudyQueue       int
	// AllowFaultHeader honors X-Fault-Plan chaos headers. Off by default:
	// arbitrary callers must not be able to inject faults.
	AllowFaultHeader bool
}

func (o Options) withDefaults() Options {
	if o.Jobs <= 0 {
		o.Jobs = runtime.GOMAXPROCS(0)
	}
	if o.StudyConcurrency <= 0 {
		o.StudyConcurrency = DefaultStudyConcurrency
	}
	return o
}

// Server is the decompilation service: warm shared models, admission
// control, and the /debug telemetry surface, behind one http.Handler.
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

	pipeline *Limiter // annotate, metrics, decompile, lint
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
		study:    NewLimiter("study", opts.StudyConcurrency, opts.StudyQueue),
	}
	if err := s.warmModels(base, store); err != nil {
		cancel()
		return nil, err
	}
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
	em, err := store.EmbedModel(ctx, ctxs, &embed.Config{Dim: DefaultEmbedDim})
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

// Close cancels the server context. Call after http.Server.Shutdown has
// waited out in-flight requests.
func (s *Server) Close() {
	s.draining.Store(true)
	s.cancel()
}

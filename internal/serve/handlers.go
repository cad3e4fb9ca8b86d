package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"decompstudy/internal/analysis"
	"decompstudy/internal/compile/opt"
	"decompstudy/internal/core"
	"decompstudy/internal/corpus"
	"decompstudy/internal/csrc"
	"decompstudy/internal/experiments"
	"decompstudy/internal/fault"
	"decompstudy/internal/namerec"
	"decompstudy/internal/obs"
	"decompstudy/internal/par"
)

// maxBody bounds request bodies; the largest legitimate payload is a
// source file, and 1 MiB is orders of magnitude above any study snippet.
const maxBody = 1 << 20

// ---- middleware ----------------------------------------------------------

// statusWriter records the status code written by a handler so the
// middleware can label its metrics.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code, w.wrote = code, true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.code, w.wrote = http.StatusOK, true
	}
	return w.ResponseWriter.Write(b)
}

// wrap is the per-endpoint middleware: POST-only, bounded body, a span
// per request, latency/throughput metrics labeled by endpoint and status,
// and a recover barrier turning handler panics into 500s instead of
// connection resets.
func (s *Server) wrap(name string, fn http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
			return
		}
		r.Body = http.MaxBytesReader(w, r.Body, maxBody)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		_, sp := obs.StartSpan(s.base, "serve.request", obs.KV("endpoint", name))
		defer func() {
			if rec := recover(); rec != nil {
				obs.Logger(s.base).Error("handler panic", "endpoint", name, "panic", rec)
				if !sw.wrote {
					writeError(sw, http.StatusInternalServerError, fmt.Errorf("internal error"))
				}
			}
			sp.SetAttr("status", strconv.Itoa(sw.code))
			sp.End()
			el := obs.L("endpoint", name)
			obs.ObserveL(s.base, "serve.request.seconds", time.Since(start).Seconds(), el)
			obs.AddCountL(s.base, "serve.requests", 1, el, obs.L("status", strconv.Itoa(sw.code)))
		}()
		fn(sw, r)
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	if code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// fail maps processing errors to status codes: saturation is 503
// (retryable elsewhere), client abandonment gets no body, a source nested
// past the csrc limits and a func filter that matches nothing are 400s,
// and everything else is a 500 carrying the pipeline error.
func (s *Server) fail(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrSaturated):
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, csrc.ErrLimit), errors.Is(err, corpus.ErrNoFunc):
		// Input nested past the parser's limits is the client's fault;
		// other parse errors (and injected csrc.parse faults) stay 500.
		writeError(w, http.StatusBadRequest, err)
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}

func decode(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("invalid request body: %w", err)
	}
	return nil
}

// requestCtx derives the per-request processing context from the server
// base: a fresh fault manifest, plus an injector when a chaos plan rides
// the X-Fault-Plan header. The context deliberately does not inherit the
// HTTP request's cancellation.
func (s *Server) requestCtx(r *http.Request) (ctx context.Context, status int, err error) {
	ctx = fault.WithManifest(s.base, fault.NewManifest())
	spec := r.Header.Get("X-Fault-Plan")
	if spec == "" {
		return ctx, 0, nil
	}
	if !s.opts.AllowFaultHeader {
		return nil, http.StatusForbidden, fmt.Errorf("X-Fault-Plan is disabled (start served with -allow-fault-header)")
	}
	plan, perr := fault.ParsePlan(spec)
	if perr != nil {
		return nil, http.StatusBadRequest, fmt.Errorf("invalid X-Fault-Plan: %w", perr)
	}
	obs.AddCount(s.base, "serve.fault.armed", 1)
	return fault.With(ctx, fault.NewInjector(plan, fault.DefaultRetryBudget)), 0, nil
}

func parseOpt(level int) (opt.Level, error) {
	l, err := opt.ParseLevel(level)
	if err != nil {
		return 0, fmt.Errorf("invalid opt level: %w", err)
	}
	return l, nil
}

// input is a validated pipeline request: a study snippet (whose source
// and types then fill source and types) or an arbitrary source, at an
// optimization level.
type input struct {
	snippet *corpus.Snippet
	source  string
	types   []string
	level   opt.Level
}

// snippetInput validates a request that names a study snippet.
func snippetInput(id string, level int) (input, error) {
	sn, ok := corpus.SnippetByID(strings.ToUpper(id))
	if !ok {
		return input{}, fmt.Errorf("unknown snippet %q (want AEEK, BAPL, POSTORDER, TC)", id)
	}
	l, err := parseOpt(level)
	if err != nil {
		return input{}, err
	}
	return input{snippet: sn, source: sn.Source, types: sn.ExtraTypes, level: l}, nil
}

// codeInput validates a request that carries exactly one of a snippet ID
// or a source.
func codeInput(id, source string, types []string, level int) (input, error) {
	if (id == "") == (source == "") {
		return input{}, fmt.Errorf("exactly one of snippet or source is required")
	}
	if id != "" {
		return snippetInput(id, level)
	}
	l, err := parseOpt(level)
	if err != nil {
		return input{}, err
	}
	return input{source: source, types: types, level: l}, nil
}

// pipelineRequest is a request body of a pipeline endpoint; input
// validates it.
type pipelineRequest interface {
	input() (input, error)
}

// admit is the prelude every pipeline endpoint shares: decode the body
// into req and validate it, both answered with a 400 before any slot is
// taken; derive the request's processing context; take a pipeline slot
// on the request's own context; and compute with one worker. The
// response compute returns is written as JSON, its error through fail.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, req pipelineRequest,
	compute func(ctx context.Context, in input) (any, error)) {
	if err := decode(r, req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	in, err := req.input()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	procCtx, status, err := s.requestCtx(r)
	if err != nil {
		writeError(w, status, err)
		return
	}
	if err := s.pipeline.Acquire(r.Context()); err != nil {
		s.fail(w, err)
		return
	}
	defer s.pipeline.Release()
	out, err := compute(par.WithJobs(procCtx, 1), in)
	if err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

// ---- health --------------------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// ---- annotate + metrics --------------------------------------------------

// AnnotateRequest asks for the DIRTY-style annotated arm of a study
// snippet at an optimization level.
type AnnotateRequest struct {
	Snippet string `json:"snippet"`
	Opt     int    `json:"opt"`
}

// RenameJSON is one recovered variable in an annotate response.
type RenameJSON struct {
	OrigName   string  `json:"orig_name"`
	OrigType   string  `json:"orig_type"`
	NewName    string  `json:"new_name"`
	NewType    string  `json:"new_type"`
	Confidence float64 `json:"confidence"`
}

// AnnotateResponse is the annotated pseudo-C plus the rename provenance.
type AnnotateResponse struct {
	Snippet string       `json:"snippet"`
	Opt     string       `json:"opt"`
	Output  string       `json:"output"`
	Renames []RenameJSON `json:"renames"`
}

func annotateResponseFrom(p *corpus.Prepared) *AnnotateResponse {
	resp := &AnnotateResponse{
		Snippet: p.Snippet.ID,
		Opt:     p.OptLevel.String(),
		Output:  p.Dirty.Source(),
		Renames: make([]RenameJSON, 0, len(p.Dirty.Renames)),
	}
	for _, rn := range p.Dirty.Renames {
		resp.Renames = append(resp.Renames, RenameJSON{
			OrigName: rn.OrigName, OrigType: rn.OrigType,
			NewName: rn.NewName, NewType: rn.NewType,
			Confidence: rn.Confidence,
		})
	}
	return resp
}

func (q *AnnotateRequest) input() (input, error) { return snippetInput(q.Snippet, q.Opt) }

func (s *Server) handleAnnotate(w http.ResponseWriter, r *http.Request) {
	s.admit(w, r, &AnnotateRequest{}, func(ctx context.Context, in input) (any, error) {
		p, err := corpus.PrepareOptCtx(ctx, in.snippet, in.level)
		if err != nil {
			return nil, err
		}
		return annotateResponseFrom(p), nil
	})
}

// MetricsRequest asks for the intrinsic metric battery of a snippet's
// recovered names against ground truth.
type MetricsRequest struct {
	Snippet string `json:"snippet"`
	Opt     int    `json:"opt"`
}

// MetricsReport mirrors metrics.Report with wire-stable field names.
type MetricsReport struct {
	ExactMatch    float64 `json:"exact_match"`
	Levenshtein   float64 `json:"levenshtein"`
	NormalizedLev float64 `json:"normalized_levenshtein"`
	Jaccard       float64 `json:"jaccard"`
	BLEU          float64 `json:"bleu"`
	CodeBLEU      float64 `json:"code_bleu"`
	BERTScoreF1   float64 `json:"bertscore_f1"`
	VarCLR        float64 `json:"varclr"`
}

// MetricsResponse is the metric battery plus the structural-complexity
// covariates of the snippet's IR.
type MetricsResponse struct {
	Snippet    string              `json:"snippet"`
	Opt        string              `json:"opt"`
	Pairs      int                 `json:"pairs"`
	Report     MetricsReport       `json:"report"`
	Covariates analysis.Covariates `json:"covariates"`
}

func (s *Server) metricsResponseFrom(ctx context.Context, p *corpus.Prepared) (*MetricsResponse, error) {
	rep, cov, err := core.EvalSnippet(ctx, p, s.embedModel)
	if err != nil {
		return nil, err
	}
	return &MetricsResponse{
		Snippet: p.Snippet.ID,
		Opt:     p.OptLevel.String(),
		Pairs:   len(p.Dirty.Renames),
		Report: MetricsReport{
			ExactMatch:    rep.ExactMatch,
			Levenshtein:   rep.Levenshtein,
			NormalizedLev: rep.NormalizedLev,
			Jaccard:       rep.Jaccard,
			BLEU:          rep.BLEU,
			CodeBLEU:      rep.CodeBLEU,
			BERTScoreF1:   rep.BERTScoreF1,
			VarCLR:        rep.VarCLR,
		},
		Covariates: cov,
	}, nil
}

func (q *MetricsRequest) input() (input, error) { return snippetInput(q.Snippet, q.Opt) }

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.admit(w, r, &MetricsRequest{}, func(ctx context.Context, in input) (any, error) {
		p, err := corpus.PrepareOptCtx(ctx, in.snippet, in.level)
		if err != nil {
			return nil, err
		}
		return s.metricsResponseFrom(ctx, p)
	})
}

// ---- decompile -----------------------------------------------------------

// DecompileRequest decompiles either an embedded study snippet or an
// arbitrary mini-C source. IR dumps the intermediate representation
// instead of pseudo-C; Annotate applies name recovery (the warm
// corpus-trained model for sources, the paper-faithful overrides for
// snippets); Func filters a source's functions by name.
type DecompileRequest struct {
	Snippet  string   `json:"snippet,omitempty"`
	Source   string   `json:"source,omitempty"`
	Types    []string `json:"types,omitempty"`
	Opt      int      `json:"opt"`
	Annotate bool     `json:"annotate"`
	IR       bool     `json:"ir"`
	Func     string   `json:"func,omitempty"`
}

// DecompileResponse carries the rendered output (pseudo-C or IR).
type DecompileResponse struct {
	Output string `json:"output"`
}

func (q *DecompileRequest) input() (input, error) {
	return codeInput(q.Snippet, q.Source, q.Types, q.Opt)
}

func (s *Server) handleDecompile(w http.ResponseWriter, r *http.Request) {
	req := &DecompileRequest{}
	s.admit(w, r, req, func(ctx context.Context, in input) (any, error) {
		if in.snippet != nil {
			p, err := corpus.PrepareOptCtx(ctx, in.snippet, in.level)
			if err != nil {
				return nil, err
			}
			return &DecompileResponse{Output: p.Render(req.IR, req.Annotate)}, nil
		}
		obj, err := corpus.CompileSource(ctx, in.source, in.types, in.level)
		if err != nil {
			return nil, err
		}
		var model *namerec.Model
		if req.Annotate {
			model = s.recModel
		}
		var sb strings.Builder
		if err := corpus.RenderSource(ctx, &sb, obj, req.Func, req.IR, model); err != nil {
			return nil, err
		}
		return &DecompileResponse{Output: sb.String()}, nil
	})
}

// ---- lint ----------------------------------------------------------------

// LintRequest verifies and lints a snippet or source and measures its
// structural-complexity covariates.
type LintRequest struct {
	Snippet string   `json:"snippet,omitempty"`
	Source  string   `json:"source,omitempty"`
	Types   []string `json:"types,omitempty"`
	Opt     int      `json:"opt"`
}

// LintResponse is the combined verifier+lint findings plus per-function
// covariates.
type LintResponse struct {
	Diags      []analysis.Diag                `json:"diags"`
	Covariates map[string]analysis.Covariates `json:"covariates"`
}

func (q *LintRequest) input() (input, error) {
	return codeInput(q.Snippet, q.Source, q.Types, q.Opt)
}

func (s *Server) handleLint(w http.ResponseWriter, r *http.Request) {
	s.admit(w, r, &LintRequest{}, func(ctx context.Context, in input) (any, error) {
		obj, err := corpus.CompileSource(ctx, in.source, in.types, in.level)
		if err != nil {
			return nil, err
		}
		diags := analysis.CheckObject(ctx, obj)
		if diags == nil {
			diags = []analysis.Diag{}
		}
		return &LintResponse{
			Diags:      diags,
			Covariates: analysis.MeasureObject(ctx, obj),
		}, nil
	})
}

// ---- study ---------------------------------------------------------------

// StudyRequest runs the full study simulation. Seed 0 means the shipped
// default (26); Artifact selects a single table/figure (empty = all, in
// paper order — byte-identical to the studysim CLI).
type StudyRequest struct {
	Seed     int64  `json:"seed"`
	Opt      int    `json:"opt"`
	Artifact string `json:"artifact,omitempty"`
}

func (s *Server) handleStudy(w http.ResponseWriter, r *http.Request) {
	var req StudyRequest
	if err := decode(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if _, err := parseOpt(req.Opt); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	name := strings.ToLower(req.Artifact)
	var entry experiments.Artifact
	if name != "" {
		var ok bool
		entry, ok = experiments.LookupArtifact(name)
		if !ok {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("unknown artifact %q (valid: %s)", req.Artifact, experiments.ArtifactNames()))
			return
		}
	}
	procCtx, status, err := s.requestCtx(r)
	if err != nil {
		writeError(w, status, err)
		return
	}
	if err := s.study.Acquire(r.Context()); err != nil {
		s.fail(w, err)
		return
	}
	defer s.study.Release()

	// A study run is seconds of CPU, so honor client disconnects by
	// forwarding the request context's cancellation onto the
	// (base-derived) processing context.
	ctx, cancel := context.WithCancel(procCtx)
	defer cancel()
	stop := context.AfterFunc(r.Context(), cancel)
	defer stop()

	runner, err := experiments.NewRunnerCtx(ctx, &core.Config{Seed: req.Seed, Jobs: s.opts.Jobs, OptLevel: req.Opt})
	if err != nil {
		s.fail(w, err)
		return
	}
	var out string
	if name == "" {
		out, err = runner.All()
	} else {
		out, err = entry.Render(runner, req.Seed)
	}
	if err != nil {
		s.fail(w, err)
		return
	}
	// Raw text, exactly the bytes studysim prints — the sha256-identity
	// contract between the service and the CLI.
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write([]byte(out))
}

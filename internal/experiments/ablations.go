package experiments

import (
	"context"
	"fmt"
	"strings"

	"decompstudy/internal/compile/opt"
	"decompstudy/internal/core"
	"decompstudy/internal/corpus"
	"decompstudy/internal/modelstore"
	"decompstudy/internal/par"
	"decompstudy/internal/participants"
	"decompstudy/internal/survey"
)

// AblationResult summarizes one counterfactual study run against the
// baseline: the treatment coefficient of the correctness GLMM, the timing
// coefficient, and the POSTORDER-Q2 gap.
type AblationResult struct {
	Name string
	// DirtyLogit and DirtyLogitP are the uses_DIRTY correctness
	// coefficient and its Wald p-value.
	DirtyLogit, DirtyLogitP float64
	// DirtySec and DirtySecP are the uses_DIRTY timing coefficient and
	// p-value.
	DirtySec, DirtySecP float64
	// PostorderGap is HexRate − DirtyRate on POSTORDER-Q2 (positive when
	// the annotations mislead).
	PostorderGap float64
	// Retained is the analyzed participant count.
	Retained int
}

// runAblation builds a study from the given survey configuration and
// extracts the ablation summary.
func runAblation(name string, seed int64, svCfg *survey.Config) (AblationResult, error) {
	return runAblationCfg(name, &core.Config{Seed: seed, Survey: svCfg})
}

// runAblationCfg is runAblation over a full study configuration, for
// ablations that vary more than the survey (the opt-level sweep).
func runAblationCfg(name string, cfg *core.Config) (AblationResult, error) {
	return runAblationCfgCtx(context.Background(), name, cfg)
}

// runAblationCfgCtx is runAblationCfg under a caller context, so batched
// grids can thread a shared model store (and telemetry) through every
// cell.
func runAblationCfgCtx(ctx context.Context, name string, cfg *core.Config) (AblationResult, error) {
	out := AblationResult{Name: name}
	s, err := core.NewCtx(ctx, cfg)
	if err != nil {
		return out, fmt.Errorf("experiments: ablation %s: %w", name, err)
	}
	cr, err := s.AnalyzeCorrectness()
	if err != nil {
		return out, fmt.Errorf("experiments: ablation %s correctness: %w", name, err)
	}
	tm, err := s.AnalyzeTiming()
	if err != nil {
		return out, fmt.Errorf("experiments: ablation %s timing: %w", name, err)
	}
	if c, ok := cr.Coef("uses_DIRTY"); ok {
		out.DirtyLogit, out.DirtyLogitP = c.Estimate, c.P
	}
	if c, ok := tm.Coef("uses_DIRTY"); ok {
		out.DirtySec, out.DirtySecP = c.Estimate, c.P
	}
	qcs, err := s.CorrectnessByQuestion()
	if err != nil {
		return out, fmt.Errorf("experiments: ablation %s fig5: %w", name, err)
	}
	for _, q := range qcs {
		if q.QuestionID == "POSTORDER-Q2" {
			out.PostorderGap = q.HexRate() - q.DirtyRate()
		}
	}
	out.Retained = len(s.Dataset.Participants)
	return out, nil
}

// Ablations renders the ablation grid under the runner's context, so the
// batched cells share the CLI's model store and telemetry — and hit the
// models the runner's own study already trained.
func (r *Runner) Ablations(seed int64) (string, []AblationResult, error) {
	return AblationsCtx(r.obsCtx(), seed)
}

// Ablations runs the design-choice counterfactuals DESIGN.md §3 calls out
// and renders them next to the baseline:
//
//   - baseline: the paper-faithful configuration;
//   - perfect-annotations: every documented DIRTY failure repaired — shows
//     how much of the null result the misleading annotations explain;
//   - skepticism-training: the §V recommendation, as a trust-distribution
//     shift — misleading annotations hurt less, at a time cost;
//   - no-quality-filter: rushers retained — shows the §III-E exclusion
//     rule guards the timing model;
//   - harder-questions: §VI robustness of the null to question difficulty.
func Ablations(seed int64) (string, []AblationResult, error) {
	return AblationsCtx(context.Background(), seed)
}

// AblationsCtx is Ablations as a batched multi-run: every cell shares one
// corpus preparation (core.Config.Prepared) and one base-model training
// (resolved through a content-addressed model store — the context's, or a
// run-local one), so each cell pays only for its own delta: the survey,
// the metric battery, and the fits. Cells fan out across the context's
// worker budget and results are collected in configuration order, so the
// rendered table is byte-identical to the sequential unbatched runs it
// replaced.
func AblationsCtx(ctx context.Context, seed int64) (string, []AblationResult, error) {
	if seed == 0 {
		seed = 26 // the library-default study seed (core.Config)
	}
	type cell struct {
		name string
		cfg  *survey.Config
	}
	configs := []cell{
		{"baseline", nil},
		{"perfect-annotations", &survey.Config{Snippets: corpus.VariantPerfectAnnotations()}},
		{"skepticism-training", &survey.Config{Pool: &participants.PoolConfig{TrustAlpha: 1.2, TrustBeta: 3}}},
		{"no-quality-filter", &survey.Config{DisableQualityFilter: true}},
		{"harder-questions", &survey.Config{Snippets: corpus.VariantHarderQuestions()}},
	}
	if modelstore.From(ctx) == nil {
		ctx = modelstore.With(ctx, modelstore.New())
	}
	prepared, err := corpus.PrepareSnippetsOpt(ctx, corpus.Snippets(), opt.O0)
	if err != nil && len(prepared) == 0 {
		return "", nil, fmt.Errorf("experiments: ablations corpus: %w", err)
	}
	results, err := par.Map(ctx, par.JobsFrom(ctx), configs, func(ctx context.Context, _ int, c cell) (AblationResult, error) {
		return runAblationCfgCtx(ctx, c.name, &core.Config{Seed: seed, Survey: c.cfg, Prepared: prepared})
	})
	if err != nil {
		return "", nil, err
	}

	var b strings.Builder
	b.WriteString("Ablations: the design choices behind the paper's findings\n\n")
	fmt.Fprintf(&b, "%-22s %14s %14s %14s %9s\n",
		"configuration", "ΔlogOdds (p)", "Δseconds (p)", "PO-Q2 gap", "retained")
	b.WriteString(strings.Repeat("-", 78) + "\n")
	for _, r := range results {
		fmt.Fprintf(&b, "%-22s %+7.3f (%.2f) %+7.1f (%.2f) %12.2f %9d\n",
			r.Name, r.DirtyLogit, r.DirtyLogitP, r.DirtySec, r.DirtySecP, r.PostorderGap, r.Retained)
	}
	b.WriteString(`
Reading: the baseline reproduces the paper (null treatment effect, large
POSTORDER-Q2 gap). Repairing the annotations turns the treatment effect
positive and closes the gap — the misleading annotations, not annotation
per se, drive the null. Skepticism training shrinks the gap at the cost
of time. Dropping the quality filter pollutes the timing model.
`)
	return b.String(), results, nil
}

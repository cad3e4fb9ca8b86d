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
	"decompstudy/internal/survey"
)

// OptLevelResult summarizes one optimization level as a study dimension:
// how much IR the optimizer deleted, how many annotations survived the
// deletion, and what the survey's treatment effect looks like once the
// surviving annotations are all participants get to see.
type OptLevelResult struct {
	Level opt.Level
	// Instrs is the corpus-wide IR instruction count at this level.
	Instrs int
	// ShrinkPct is the instruction-count reduction relative to -O0.
	ShrinkPct float64
	// Survival is the fraction of -O0 annotation renames still present on
	// the optimized decompilation (optimized-away variables carry no
	// annotation).
	Survival float64
	// Ablation carries the behavioral outcomes of the scaled study run.
	Ablation AblationResult
}

// OptLevels renders the optimization-level sweep under the runner's
// context (shared model store and telemetry).
func (r *Runner) OptLevels(seed int64) (string, []OptLevelResult, error) {
	return OptLevelsCtx(r.obsCtx(), seed)
}

// OptLevels sweeps the optimization level across the whole study: the
// corpus is re-prepared at -O0/-O1/-O2, annotation survival is measured
// against the -O0 decompilation, and a full study runs per level with
// every question's treatment effect attenuated by that snippet's survival
// fraction — an annotation on a deleted variable can neither help nor
// mislead. The rendered table puts IR shrink, annotation survival, and
// the resulting treatment coefficients side by side.
func OptLevels(seed int64) (string, []OptLevelResult, error) {
	return OptLevelsCtx(context.Background(), seed)
}

// OptLevelsCtx is OptLevels as a batched multi-run. The corpus is prepared
// once per level (the -O0 preparation doubles as the survival baseline and
// the -O0 cell's corpus, so it is never prepared twice), and the trained
// models are resolved through a shared content-addressed store: training
// inputs don't depend on the optimization level, so all three studies run
// off ONE embedding train and ONE recovery train instead of three of each.
// Levels fan out across the context's worker budget; results are collected
// in level order, byte-identical to the sequential sweep this replaced.
func OptLevelsCtx(ctx context.Context, seed int64) (string, []OptLevelResult, error) {
	if seed == 0 {
		seed = 26 // the library-default study seed (core.Config)
	}
	if modelstore.From(ctx) == nil {
		ctx = modelstore.With(ctx, modelstore.New())
	}

	countInstrs := func(ps []*corpus.Prepared) int {
		n := 0
		for _, p := range ps {
			for _, b := range p.IR.Blocks {
				n += len(b.Instrs)
			}
		}
		return n
	}
	countRenames := func(ps []*corpus.Prepared) map[string]int {
		out := make(map[string]int, len(ps))
		for _, p := range ps {
			out[p.Snippet.ID] = len(p.Dirty.Renames)
		}
		return out
	}

	base, err := corpus.PrepareSnippetsOpt(ctx, corpus.Snippets(), opt.O0)
	if err != nil {
		return "", nil, fmt.Errorf("experiments: optlevels -O0 corpus: %w", err)
	}
	baseInstrs := countInstrs(base)
	baseRenames := countRenames(base)

	results, err := par.Map(ctx, par.JobsFrom(ctx), []opt.Level{opt.O0, opt.O1, opt.O2},
		func(ctx context.Context, _ int, level opt.Level) (OptLevelResult, error) {
			ps := base // -O0 reuses the baseline preparation
			if level != opt.O0 {
				var err error
				ps, err = corpus.PrepareSnippetsOpt(ctx, corpus.Snippets(), level)
				if err != nil {
					return OptLevelResult{}, fmt.Errorf("experiments: optlevels %s corpus: %w", level, err)
				}
			}
			r := OptLevelResult{Level: level, Instrs: countInstrs(ps), Survival: 1}
			if baseInstrs > 0 {
				r.ShrinkPct = 100 * float64(baseInstrs-r.Instrs) / float64(baseInstrs)
			}

			// Per-snippet annotation survival, and its corpus-wide aggregate.
			scale := make(map[string]float64, len(ps))
			kept, total := 0, 0
			for _, p := range ps {
				b := baseRenames[p.Snippet.ID]
				n := len(p.Dirty.Renames)
				if n > b {
					n = b // new scratch temps never count as surviving annotations
				}
				f := 1.0
				if b > 0 {
					f = float64(n) / float64(b)
				}
				scale[p.Snippet.ID] = f
				kept += n
				total += b
			}
			if total > 0 {
				r.Survival = float64(kept) / float64(total)
			}

			var err error
			r.Ablation, err = runAblationCfgCtx(ctx, level.String(), &core.Config{
				Seed:     seed,
				OptLevel: int(level),
				Prepared: ps,
				Survey:   &survey.Config{Snippets: corpus.VariantOptScaled(scale)},
			})
			if err != nil {
				return OptLevelResult{}, fmt.Errorf("experiments: optlevels %s study: %w", level, err)
			}
			return r, nil
		})
	if err != nil {
		return "", nil, err
	}

	var b strings.Builder
	b.WriteString("Optimization level as a study dimension\n\n")
	fmt.Fprintf(&b, "%-6s %7s %8s %9s %14s %12s %9s\n",
		"level", "instrs", "shrink", "survival", "ΔlogOdds (p)", "PO-Q2 gap", "retained")
	b.WriteString(strings.Repeat("-", 72) + "\n")
	for _, r := range results {
		fmt.Fprintf(&b, "%-6s %7d %7.1f%% %8.0f%% %+7.3f (%.2f) %12.2f %9d\n",
			r.Level, r.Instrs, r.ShrinkPct, 100*r.Survival,
			r.Ablation.DirtyLogit, r.Ablation.DirtyLogitP,
			r.Ablation.PostorderGap, r.Ablation.Retained)
	}
	b.WriteString(`
Reading: -O0 is the paper's configuration. Higher levels delete the very
instructions and variables the annotations anchor to: the treatment
effect — help and harm alike — attenuates with annotation survival, and
the POSTORDER-Q2 gap closes not because the annotations improved but
because the misleading ones no longer exist to be believed.
`)
	return b.String(), results, nil
}

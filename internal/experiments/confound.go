package experiments

import (
	"context"
	"fmt"
	"strings"

	"decompstudy/internal/compile/opt"
	"decompstudy/internal/corpus"
	"decompstudy/internal/csrc"
	"decompstudy/internal/degpt"
	"decompstudy/internal/embed"
	"decompstudy/internal/metrics"
	"decompstudy/internal/namerec"
	"decompstudy/internal/report"
)

// ConfoundComparison demonstrates why the paper excluded deGPT-style tools
// from its experiment (§VI): even with the *same names as DIRTY*, deGPT's
// structure simplification and comment generation move the code-level
// metrics (codeBLEU), so any comprehension difference could not be
// attributed to names and types. The table contrasts, per snippet:
//
//	names-only   — DIRTY's renaming applied to the raw decompilation,
//	deGPT-full   — the same renaming plus simplification and comments.
//
// Name-level metrics are identical between the rows by construction;
// code-level metrics differ — the confound, quantified.
func ConfoundComparison() (string, error) {
	ctxs, err := corpus.EmbeddingContexts()
	if err != nil {
		return "", err
	}
	model, err := embed.Train(ctxs, &embed.Config{Dim: 24})
	if err != nil {
		return "", err
	}
	tbl := &report.Table{
		Title:   "Confound check: names-only (DIRTY) vs full enrichment (deGPT analog)",
		Columns: []string{"Snippet", "Variant", "BLEU(names)", "VarCLR", "codeBLEU", "Lines"},
	}
	var maxShift float64
	for _, s := range corpus.Snippets() {
		p, err := corpus.PrepareOptCtx(context.Background(), s, opt.O0)
		if err != nil {
			return "", err
		}
		pairs := make([]metrics.Pair, 0, len(p.Dirty.Renames))
		for _, r := range p.Dirty.Renames {
			pairs = append(pairs, metrics.Pair{Candidate: r.NewName, Reference: r.OrigName})
		}

		// Row 1: DIRTY names on the unmodified decompilation.
		dirtyRep, err := metrics.Evaluate(pairs, p.Dirty.Source(), p.OrigSource, model)
		if err != nil {
			return "", err
		}

		// Row 2: identical names, but run through the deGPT pipeline.
		// Reuse the paper-faithful names by annotating with the same
		// overrides, then enriching.
		an := &namerec.Annotator{Opts: namerec.Options{
			Overrides:  s.DirtyOverrides,
			SwapParams: s.SwapParams,
		}}
		annotated, err := an.Annotate(p.HexRays)
		if err != nil {
			return "", err
		}
		enriched := degpt.CommentFunction(degpt.SimplifyFunction(annotated.Pseudo))
		enrichedSrc := csrc.PrintFunction(enriched, nil)
		degptRep, err := metrics.Evaluate(pairs, enrichedSrc, p.OrigSource, model)
		if err != nil {
			return "", err
		}

		tbl.Rows = append(tbl.Rows, []string{
			s.ID, "names-only",
			fmt.Sprintf("%.3f", dirtyRep.BLEU),
			fmt.Sprintf("%.3f", dirtyRep.VarCLR),
			fmt.Sprintf("%.3f", dirtyRep.CodeBLEU),
			fmt.Sprintf("%d", strings.Count(p.Dirty.Source(), "\n")),
		})
		tbl.Rows = append(tbl.Rows, []string{
			"", "deGPT-full",
			fmt.Sprintf("%.3f", degptRep.BLEU),
			fmt.Sprintf("%.3f", degptRep.VarCLR),
			fmt.Sprintf("%.3f", degptRep.CodeBLEU),
			fmt.Sprintf("%d", strings.Count(enrichedSrc, "\n")),
		})
		if shift := abs(dirtyRep.CodeBLEU - degptRep.CodeBLEU); shift > maxShift {
			maxShift = shift
		}
	}
	var b strings.Builder
	b.WriteString(tbl.String())
	fmt.Fprintf(&b, `
Name-level metrics (BLEU over names, VarCLR) are identical across each
pair of rows — the names ARE the same. codeBLEU shifts by up to %.3f and
the line counts grow: structural enrichment changes what participants
read. A comprehension study of deGPT therefore cannot attribute effects
to names and types, which is exactly why the paper evaluated DIRTY alone.
`, maxShift)
	return b.String(), nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

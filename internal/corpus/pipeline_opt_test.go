package corpus

import (
	"context"
	"testing"

	"decompstudy/internal/analysis"
	"decompstudy/internal/compile/opt"
)

// TestPrepareAllOptLevels runs the full corpus through every optimization
// level: every snippet must survive the pipeline (the optimizer's verify
// and differential gates included), the optimized IR must carry zero
// verifier diagnostics of any severity, and -O2 must measurably shrink
// the total instruction count — mov-heavy expression lowering leaves
// plenty for copy propagation and DCE to reclaim.
func TestPrepareAllOptLevels(t *testing.T) {
	ctx := context.Background()
	count := func(ps []*Prepared) int {
		n := 0
		for _, p := range ps {
			for _, b := range p.IR.Blocks {
				n += len(b.Instrs)
			}
		}
		return n
	}

	base, err := PrepareSnippetsOpt(ctx, Snippets(), opt.O0)
	if err != nil {
		t.Fatalf("-O0: %v", err)
	}
	totals := map[opt.Level]int{opt.O0: count(base)}

	for _, level := range []opt.Level{opt.O1, opt.O2} {
		ps, err := PrepareSnippetsOpt(ctx, Snippets(), level)
		if err != nil {
			t.Fatalf("%s: %v", level, err)
		}
		if len(ps) != len(base) {
			t.Fatalf("%s lost snippets: %d of %d survived", level, len(ps), len(base))
		}
		for _, p := range ps {
			if p.OptLevel != level {
				t.Errorf("%s: %s records level %s", level, p.Snippet.ID, p.OptLevel)
			}
			if diags := analysis.VerifyCtx(ctx, p.IR); len(diags) > 0 {
				t.Errorf("%s: %s optimized IR has %d diagnostics, first: %s",
					level, p.Snippet.ID, len(diags), diags[0])
			}
		}
		totals[level] = count(ps)
	}

	if totals[opt.O1] > totals[opt.O0] {
		t.Errorf("-O1 grew the corpus: %d -> %d instructions", totals[opt.O0], totals[opt.O1])
	}
	if totals[opt.O2] >= totals[opt.O0] {
		t.Errorf("-O2 did not shrink the corpus: %d -> %d instructions", totals[opt.O0], totals[opt.O2])
	}
	t.Logf("corpus instructions: -O0 %d, -O1 %d, -O2 %d", totals[opt.O0], totals[opt.O1], totals[opt.O2])
}

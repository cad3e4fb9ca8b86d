// Package decompstudy's root benchmark suite regenerates every table and
// figure in the paper's evaluation section (DESIGN.md §3 maps each
// benchmark to its artifact). Each BenchmarkTableX/BenchmarkFigureX runs
// the corresponding experiment driver end-to-end against the shared study;
// the Pipeline benchmarks measure the substrates themselves. End-to-end
// performance (latency, capacity, CPU and memory per operation) is
// measured by perfbench/, not here.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package decompstudy

import (
	"context"
	"sync"
	"testing"
	"time"

	"decompstudy/internal/analysis"
	"decompstudy/internal/compile"
	"decompstudy/internal/compile/opt"
	"decompstudy/internal/core"
	"decompstudy/internal/corpus"
	"decompstudy/internal/csrc"
	"decompstudy/internal/decomp"
	"decompstudy/internal/embed"
	"decompstudy/internal/experiments"
	"decompstudy/internal/metrics"
	"decompstudy/internal/obs"
	"decompstudy/internal/survey"
)

var (
	benchOnce   sync.Once
	benchRunner *experiments.Runner
	benchErr    error
)

func sharedRunner(b *testing.B) *experiments.Runner {
	b.Helper()
	benchOnce.Do(func() {
		benchRunner, benchErr = experiments.NewRunner(nil)
	})
	if benchErr != nil {
		b.Fatalf("building study: %v", benchErr)
	}
	return benchRunner
}

func benchArtifact(b *testing.B, fn func() (string, error)) {
	b.Helper()
	r := sharedRunner(b)
	_ = r
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := fn()
		if err != nil {
			b.Fatal(err)
		}
		if len(out) == 0 {
			b.Fatal("empty artifact")
		}
	}
}

// BenchmarkTableI regenerates the RQ1 correctness GLMM (paper Table I).
func BenchmarkTableI(b *testing.B) { benchArtifact(b, sharedRunner(b).TableI) }

// BenchmarkTableII regenerates the RQ2 timing LMM (paper Table II).
func BenchmarkTableII(b *testing.B) { benchArtifact(b, sharedRunner(b).TableII) }

// BenchmarkTableIII regenerates the similarity-vs-time correlations
// (paper Table III).
func BenchmarkTableIII(b *testing.B) { benchArtifact(b, sharedRunner(b).TableIII) }

// BenchmarkTableIV regenerates the similarity-vs-correctness correlations
// (paper Table IV).
func BenchmarkTableIV(b *testing.B) { benchArtifact(b, sharedRunner(b).TableIV) }

// BenchmarkFigure1 regenerates the AEEK source/DIRTY comparison (Figure 1).
func BenchmarkFigure1(b *testing.B) { benchArtifact(b, sharedRunner(b).Figure1) }

// BenchmarkFigure2 regenerates the example survey page (Figure 2).
func BenchmarkFigure2(b *testing.B) { benchArtifact(b, sharedRunner(b).Figure2) }

// BenchmarkFigure3 regenerates the demographics histograms (Figure 3).
func BenchmarkFigure3(b *testing.B) { benchArtifact(b, sharedRunner(b).Figure3) }

// BenchmarkFigure4 regenerates the postorder argument-swap figure (Figure 4).
func BenchmarkFigure4(b *testing.B) { benchArtifact(b, sharedRunner(b).Figure4) }

// BenchmarkFigure5 regenerates per-question correctness bars (Figure 5).
func BenchmarkFigure5(b *testing.B) { benchArtifact(b, sharedRunner(b).Figure5) }

// BenchmarkFigure6 regenerates the BAPL timing comparison (Figure 6).
func BenchmarkFigure6(b *testing.B) { benchArtifact(b, sharedRunner(b).Figure6) }

// BenchmarkFigure7 regenerates the AEEK correct-answer timing figure
// (Figure 7).
func BenchmarkFigure7(b *testing.B) { benchArtifact(b, sharedRunner(b).Figure7) }

// BenchmarkFigure8 regenerates the diverging Likert opinions (Figure 8).
func BenchmarkFigure8(b *testing.B) { benchArtifact(b, sharedRunner(b).Figure8) }

// BenchmarkInTextStats regenerates the §IV in-text statistics (X1–X3).
func BenchmarkInTextStats(b *testing.B) { benchArtifact(b, sharedRunner(b).InTextStats) }

// BenchmarkFullStudy measures one complete pipeline run: corpus
// preparation, model training, survey administration, metric evaluation,
// and the expert panel.
func BenchmarkFullStudy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.New(&core.Config{Seed: int64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSurveyAdministration measures survey data collection alone
// (42 recruited participants × 4 snippets × 2 questions).
func BenchmarkSurveyAdministration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := survey.Run(&survey.Config{Seed: int64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineCompile measures parsing + lowering of all four study
// snippets to IR.
func BenchmarkPipelineCompile(b *testing.B) {
	snippets := corpus.Snippets()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range snippets {
			f, err := s.Parse()
			if err != nil {
				b.Fatal(err)
			}
			if _, err := compile.Compile(f); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkPipelineDecompile measures CFG structuring and pseudo-C
// rendering for the AEEK snippet.
func BenchmarkPipelineDecompile(b *testing.B) {
	s, _ := corpus.SnippetByID("AEEK")
	f, err := s.Parse()
	if err != nil {
		b.Fatal(err)
	}
	obj, err := compile.Compile(f)
	if err != nil {
		b.Fatal(err)
	}
	fn, _ := obj.Func0(s.FuncName)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := decomp.LiftFunc(fn)
		if err != nil {
			b.Fatal(err)
		}
		if d.Source() == "" {
			b.Fatal("empty source")
		}
	}
}

// BenchmarkEmbeddingTraining measures PPMI+SVD identifier embedding
// training on the full corpus.
func BenchmarkEmbeddingTraining(b *testing.B) {
	ctxs, err := corpus.EmbeddingContexts()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := embed.Train(ctxs, &embed.Config{Dim: 24}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMetricsEvaluate measures the full intrinsic metric report for
// one snippet's renaming.
func BenchmarkMetricsEvaluate(b *testing.B) {
	ctxs, err := corpus.EmbeddingContexts()
	if err != nil {
		b.Fatal(err)
	}
	model, err := embed.Train(ctxs, &embed.Config{Dim: 24})
	if err != nil {
		b.Fatal(err)
	}
	s, _ := corpus.SnippetByID("AEEK")
	p, err := corpus.PrepareOptCtx(context.Background(), s, opt.O0)
	if err != nil {
		b.Fatal(err)
	}
	pairs := make([]metrics.Pair, 0, len(p.Dirty.Renames))
	for _, r := range p.Dirty.Renames {
		pairs = append(pairs, metrics.Pair{Candidate: r.NewName, Reference: r.OrigName})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := metrics.Evaluate(pairs, p.Dirty.Source(), p.OrigSource, model); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParserRoundTrip measures parse→print→parse on Hex-Rays-style
// pseudo-C.
func BenchmarkParserRoundTrip(b *testing.B) {
	s, _ := corpus.SnippetByID("AEEK")
	p, err := corpus.PrepareOptCtx(context.Background(), s, opt.O0)
	if err != nil {
		b.Fatal(err)
	}
	src := csrc.PrintFunction(p.HexRays.Pseudo, nil)
	b.ReportAllocs()
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := csrc.Parse(src, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblations runs the five design-choice counterfactual studies
// (DESIGN.md §3's ablation row).
func BenchmarkAblations(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Ablations(int64(i + 1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConfoundComparison runs the deGPT-vs-DIRTY confound
// quantification (the §VI exclusion argument).
func BenchmarkConfoundComparison(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ConfoundComparison(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterpreter measures IR execution of the TC study snippet.
func BenchmarkInterpreter(b *testing.B) {
	s, _ := corpus.SnippetByID("TC")
	f, err := s.Parse()
	if err != nil {
		b.Fatal(err)
	}
	obj, err := compile.Compile(f)
	if err != nil {
		b.Fatal(err)
	}
	m := compile.NewMachine(obj, 1<<10)
	m.Mem()[16] = 0x01
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Call("twos_complement", 32, 16, 2, 0xff); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalysis measures one static-analysis sweep over every study
// snippet (verifier, lint checkers, complexity covariates) and splits
// the wall-clock into ns/verify and ns/liveness custom metrics from the
// obs span collector.
func BenchmarkAnalysis(b *testing.B) {
	var funcs []*compile.Func
	for _, s := range corpus.Snippets() {
		f, err := s.Parse()
		if err != nil {
			b.Fatal(err)
		}
		obj, err := compile.Compile(f)
		if err != nil {
			b.Fatal(err)
		}
		funcs = append(funcs, obj.Funcs...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	stageTotals := map[string]time.Duration{}
	for i := 0; i < b.N; i++ {
		o := obs.New()
		ctx := obs.With(context.Background(), o)
		for _, fn := range funcs {
			if diags := analysis.VerifyCtx(ctx, fn); analysis.CountSev(diags, analysis.SevError) != 0 {
				b.Fatalf("%s: %v", fn.Name, diags)
			}
			func() {
				_, sp := obs.StartSpan(ctx, "analysis.Liveness", obs.KV("func", fn.Name))
				defer sp.End()
				analysis.Liveness(analysis.NewGraph(fn))
			}()
			analysis.MeasureCtx(ctx, fn)
		}
		for name, d := range o.Trace.StageTotals() {
			stageTotals[name] += d
		}
	}
	n := float64(b.N)
	b.ReportMetric(float64(stageTotals["analysis.Verify"].Nanoseconds())/n, "ns/verify")
	b.ReportMetric(float64(stageTotals["analysis.Liveness"].Nanoseconds())/n, "ns/liveness")
}

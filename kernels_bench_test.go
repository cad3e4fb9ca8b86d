package decompstudy

// BenchmarkKernels measures the serial hot kernels the pipeline spends its
// wall-clock in — the targets of the PR-4 kernel pass. Each sub-benchmark
// isolates one kernel at jobs=1 so the numbers measure single-thread
// throughput, not scheduling. Run with
//
//	go test -run NONE -bench BenchmarkKernels -benchmem .

import (
	"context"
	"fmt"
	"testing"

	"decompstudy/internal/compile/opt"
	"decompstudy/internal/corpus"
	"decompstudy/internal/embed"
	"decompstudy/internal/linalg"
	"decompstudy/internal/metrics"
	"decompstudy/internal/mixed"
	"decompstudy/internal/par"
)

// kernelModel trains one embedding model on the study corpus, shared by the
// cosine kernels.
func kernelModel(b *testing.B) *embed.Model {
	b.Helper()
	ctxs, err := corpus.EmbeddingContexts()
	if err != nil {
		b.Fatal(err)
	}
	m, err := embed.Train(ctxs, &embed.Config{Dim: 24})
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// kernelSpec builds a small crossed-design mixed-model spec shaped like the
// paper's correctness/timing models (42 users × 8 questions).
func kernelSpec(b *testing.B, binary bool) *mixed.Spec {
	b.Helper()
	const users, questions = 42, 8
	n := users * questions
	rows := make([][]float64, 0, n)
	resp := make([]float64, 0, n)
	userIdx := make([]int, 0, n)
	qIdx := make([]int, 0, n)
	// Deterministic LCG so the spec is identical across runs.
	seed := uint64(0x9E3779B97F4A7C15)
	next := func() float64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return float64(seed>>40) / float64(1<<24)
	}
	for u := 0; u < users; u++ {
		for q := 0; q < questions; q++ {
			treat := float64((u + q) % 2)
			x1 := next()*4 + 1
			x2 := next()*4 + 1
			rows = append(rows, []float64{1, treat, x1, x2})
			y := 0.3*treat + 0.2*x1 - 0.1*x2 + next()
			if binary {
				if y > 1.4 {
					y = 1
				} else {
					y = 0
				}
			}
			resp = append(resp, y)
			userIdx = append(userIdx, u)
			qIdx = append(qIdx, q)
		}
	}
	fixed, err := linalg.NewMatrixFromRows(rows)
	if err != nil {
		b.Fatal(err)
	}
	return &mixed.Spec{
		Response:   resp,
		Fixed:      fixed,
		FixedNames: []string{"(Intercept)", "uses_DIRTY", "Exp_Coding", "Exp_RE"},
		Random: []mixed.RandomFactor{
			{Name: "user", Index: userIdx, NLevels: users},
			{Name: "question", Index: qIdx, NLevels: questions},
		},
	}
}

// BenchmarkKernels is the per-kernel harness.
func BenchmarkKernels(b *testing.B) {
	ctx1 := par.WithJobs(context.Background(), 1)

	b.Run("embed_train", func(b *testing.B) {
		ctxs, err := corpus.EmbeddingContexts()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := embed.TrainCtx(ctx1, ctxs, &embed.Config{Dim: 24}); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("cosine_miss", func(b *testing.B) {
		m := kernelModel(b)
		// Distinct multi-subtoken pairs so every lookup takes the memo-cache
		// miss path; the identifier pool is warmed below so steady-state
		// misses are measured, not first-touch tokenization.
		pool := make([]string, 512)
		for i := range pool {
			pool[i] = fmt.Sprintf("bufLen%dNode", i)
		}
		for _, id := range pool {
			m.Cosine(id, "sizeValue")
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Cosine(pool[i%len(pool)], pool[(i*7+3)%len(pool)])
		}
	})

	b.Run("cosine_hit", func(b *testing.B) {
		m := kernelModel(b)
		m.Cosine("size", "length")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Cosine("size", "length")
		}
	})

	b.Run("levenshtein", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			metrics.Levenshtein("recursive_descent_parser", "recursiveDescentParse")
		}
	})

	b.Run("metrics_evaluate", func(b *testing.B) {
		m := kernelModel(b)
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
			if _, err := metrics.EvaluateCtx(ctx1, pairs, p.Dirty.Source(), p.OrigSource, m); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("lmm_fit", func(b *testing.B) {
		spec := kernelSpec(b, false)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := mixed.FitLMM(spec); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("glmm_fit", func(b *testing.B) {
		spec := kernelSpec(b, true)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := mixed.FitGLMMLogit(spec); err != nil {
				b.Fatal(err)
			}
		}
	})
}

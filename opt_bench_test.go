package decompstudy

// BenchmarkOptimizer measures the verified optimization pipeline
// (internal/compile/opt) over the full study corpus: SSA construction,
// the constprop/copyprop/dce passes, out-of-SSA deconstruction with
// coalescing, the per-pass verifier gate, and the differential execution
// gate. One sub-benchmark per level, each reporting the corpus
// instruction count before and after (instrs/before, instrs/after).

import (
	"context"
	"testing"

	"decompstudy/internal/compile"
	"decompstudy/internal/compile/opt"
	"decompstudy/internal/corpus"
	"decompstudy/internal/csrc"
)

// corpusObjects compiles every study snippet to an unoptimized object.
func corpusObjects(b *testing.B) []*compile.Object {
	b.Helper()
	var objs []*compile.Object
	for _, s := range corpus.Snippets() {
		file, err := csrc.Parse(s.Source, s.ExtraTypes)
		if err != nil {
			b.Fatalf("%s: %v", s.ID, err)
		}
		obj, err := compile.Compile(file)
		if err != nil {
			b.Fatalf("%s: %v", s.ID, err)
		}
		objs = append(objs, obj)
	}
	return objs
}

func BenchmarkOptimizer(b *testing.B) {
	objs := corpusObjects(b)
	ctx := context.Background()
	for _, level := range []opt.Level{opt.O1, opt.O2} {
		b.Run(level.String()[1:], func(b *testing.B) {
			var last *opt.Stats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				total := &opt.Stats{Level: level}
				for _, obj := range objs {
					_, st, err := opt.OptimizeObject(ctx, obj, level)
					if err != nil {
						b.Fatal(err)
					}
					total.Merge(st)
				}
				last = total
			}
			b.ReportMetric(float64(last.InstrsBefore), "instrs/before")
			b.ReportMetric(float64(last.InstrsAfter), "instrs/after")
			for _, p := range last.Passes {
				b.ReportMetric(float64(p.Nanos), "ns/"+p.Pass)
			}
		})
	}
}

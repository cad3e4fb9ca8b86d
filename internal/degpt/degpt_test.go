package degpt

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"decompstudy/internal/compile"
	"decompstudy/internal/compile/opt"
	"decompstudy/internal/corpus"
	"decompstudy/internal/csrc"
	"decompstudy/internal/decomp"
	"decompstudy/internal/namerec"
)

func liftOne(t *testing.T, src string) *decomp.Decompiled {
	t.Helper()
	f, err := csrc.Parse(src, nil)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	obj, err := compile.Compile(f)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	d, err := decomp.LiftFunc(obj.Funcs[0])
	if err != nil {
		t.Fatalf("Lift: %v", err)
	}
	return d
}

func TestOptimizeProducesAllAugmentations(t *testing.T) {
	training, err := corpus.TrainingFiles()
	if err != nil {
		t.Fatalf("TrainingFiles: %v", err)
	}
	model, err := namerec.TrainModel(training)
	if err != nil {
		t.Fatalf("TrainModel: %v", err)
	}
	d := liftOne(t, `
long find_first(long *table, int count, long needle) {
  if (count == 0) {
    return -1;
  }
  for (int i = 0; i < count; i++) {
    if (table[i] == needle) {
      return i;
    }
  }
  return -1;
}
`)
	opt := &Optimizer{Model: model}
	res, err := opt.Optimize(d)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	src := res.Source()
	if !strings.Contains(src, "// ") {
		t.Errorf("no comments generated:\n%s", src)
	}
	if !strings.Contains(src, "guard:") {
		t.Errorf("missing guard comment for the early return:\n%s", src)
	}
	if !strings.Contains(src, "loop:") {
		t.Errorf("missing loop comment:\n%s", src)
	}
	if res.Summary == "" || !strings.Contains(res.Summary, "loop(s)") {
		t.Errorf("summary = %q", res.Summary)
	}
	if len(res.Renames) == 0 {
		t.Error("no renames recorded")
	}
}

func TestSimplifyFusesNestedIfs(t *testing.T) {
	f, err := csrc.Parse(`
int f(int a, int b) {
  if (a > 0) {
    if (b > 0) {
      return 1;
    }
  }
  return 0;
}
`, nil)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	simplified := SimplifyFunction(f.Functions[0])
	out := csrc.PrintFunction(simplified, nil)
	if !strings.Contains(out, "a > 0 && b > 0") {
		t.Errorf("nested ifs not fused:\n%s", out)
	}
}

func TestSimplifyCollapsesAssignReturn(t *testing.T) {
	f, err := csrc.Parse(`
int f(int a) {
  int v;
  v = a * 2;
  return v;
}
`, nil)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	simplified := SimplifyFunction(f.Functions[0])
	out := csrc.PrintFunction(simplified, nil)
	if !strings.Contains(out, "return a * 2;") {
		t.Errorf("assign+return not collapsed:\n%s", out)
	}
}

// TestSimplifyPreservesSemantics is the "referee": structural rewrites are
// differentially executed against the originals over random programs.
func TestSimplifyPreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	progs := []string{
		`long f0(long a, long b, long c) {
  long r = 0;
  if (a > 0) {
    if (b > 0) {
      r = a + b;
    }
  }
  r = r + c;
  return r;
}`,
		`long f1(long a, long b, long c) {
  long v;
  if (a > b) {
    if (b > c) {
      v = 1;
      return v;
    }
  }
  v = 2;
  return v;
}`,
		`long f2(long a, long b, long c) {
  long total = 0;
  for (long i = 0; i < 5; i++) {
    if (i > 1) {
      if (a > 0) {
        total = total + i;
      }
    }
  }
  return total;
}`,
	}
	for _, src := range progs {
		file, err := csrc.Parse(src, nil)
		if err != nil {
			t.Fatalf("Parse: %v\n%s", err, src)
		}
		orig := file.Functions[0]
		simplified := SimplifyFunction(orig)

		origSrc := csrc.PrintFunction(orig, nil)
		simpSrc := csrc.PrintFunction(simplified, nil)
		run := func(text string, a, b, c int64) (int64, error) {
			f2, err := csrc.Parse(text, nil)
			if err != nil {
				t.Fatalf("reparse: %v\n%s", err, text)
			}
			obj, err := compile.Compile(f2)
			if err != nil {
				t.Fatalf("recompile: %v\n%s", err, text)
			}
			m := compile.NewMachine(obj, 1024)
			return m.Call(obj.Funcs[0].Name, a, b, c)
		}
		for i := 0; i < 30; i++ {
			a := int64(rng.Intn(21) - 10)
			b := int64(rng.Intn(21) - 10)
			c := int64(rng.Intn(21) - 10)
			v1, e1 := run(origSrc, a, b, c)
			v2, e2 := run(simpSrc, a, b, c)
			if v1 != v2 || (e1 == nil) != (e2 == nil) {
				t.Fatalf("simplification changed semantics on (%d,%d,%d): %d vs %d\n--- orig ---\n%s\n--- simplified ---\n%s",
					a, b, c, v1, v2, origSrc, simpSrc)
			}
		}
	}
}

func TestOptimizeConfoundIsolation(t *testing.T) {
	// The paper's §VI point: deGPT's extra augmentations change the code
	// structure itself. With comments and simplification disabled, output
	// must match plain renaming.
	d := liftOne(t, `
int g(int a) {
  int v;
  v = a + 1;
  return v;
}
`)
	bare := &Optimizer{DisableComments: true, DisableSimplify: true}
	res, err := bare.Optimize(d)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if strings.Contains(csrc.PrintFunction(res.Pseudo, nil), "//") {
		t.Error("comments generated despite DisableComments")
	}
	full := &Optimizer{}
	res2, err := full.Optimize(d)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if csrc.PrintFunction(res.Pseudo, nil) == csrc.PrintFunction(res2.Pseudo, nil) {
		t.Error("full enrichment should differ from bare renaming (the confound)")
	}
}

func TestOptimizeNil(t *testing.T) {
	o := &Optimizer{}
	if _, err := o.Optimize(nil); err == nil {
		t.Error("nil input: want error")
	}
}

func TestOptimizeStudySnippets(t *testing.T) {
	// Every study snippet must survive the full enrichment pipeline.
	for _, s := range corpus.Snippets() {
		p, err := corpus.PrepareOptCtx(context.Background(), s, opt.O0)
		if err != nil {
			t.Fatalf("Prepare %s: %v", s.ID, err)
		}
		o := &Optimizer{}
		res, err := o.Optimize(p.HexRays)
		if err != nil {
			t.Errorf("%s: %v", s.ID, err)
			continue
		}
		if res.Source() == "" {
			t.Errorf("%s: empty output", s.ID)
		}
	}
}

package corpus

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"decompstudy/internal/compile/opt"
	"decompstudy/internal/embed"
	"decompstudy/internal/namerec"
)

func TestSnippetsInventory(t *testing.T) {
	snippets := Snippets()
	if len(snippets) != 4 {
		t.Fatalf("snippets = %d, want 4", len(snippets))
	}
	wantIDs := map[string]string{
		"AEEK":      "lighttpd",
		"BAPL":      "lighttpd",
		"POSTORDER": "coreutils",
		"TC":        "openssl",
	}
	totalQuestions := 0
	for _, s := range snippets {
		proj, ok := wantIDs[s.ID]
		if !ok {
			t.Errorf("unexpected snippet %s", s.ID)
			continue
		}
		if s.Project != proj {
			t.Errorf("%s project = %q, want %q", s.ID, s.Project, proj)
		}
		if len(s.Questions) != 2 {
			t.Errorf("%s has %d questions, want 2 (paper §III-C)", s.ID, len(s.Questions))
		}
		totalQuestions += len(s.Questions)
		// Paper §III-B: at least three renamed or retyped variables.
		if len(s.DirtyOverrides) < 3 {
			t.Errorf("%s has %d DIRTY renamings, want ≥3", s.ID, len(s.DirtyOverrides))
		}
	}
	if totalQuestions != 8 {
		t.Errorf("total questions = %d, want 8", totalQuestions)
	}
}

func TestSnippetByID(t *testing.T) {
	if _, ok := SnippetByID("AEEK"); !ok {
		t.Error("AEEK not found")
	}
	if _, ok := SnippetByID("NOPE"); ok {
		t.Error("unexpected snippet found")
	}
}

func TestAllSnippetsParse(t *testing.T) {
	for _, s := range Snippets() {
		if _, err := s.Parse(); err != nil {
			t.Errorf("snippet %s: %v", s.ID, err)
		}
	}
}

func TestPrepareAllPipeline(t *testing.T) {
	prepared, err := PrepareSnippetsOpt(context.Background(), Snippets(), opt.O0)
	if err != nil {
		t.Fatalf("PrepareSnippetsOpt: %v", err)
	}
	if len(prepared) != 4 {
		t.Fatalf("prepared = %d, want 4", len(prepared))
	}
	for _, p := range prepared {
		hex := p.HexRays.Source()
		dirty := p.Dirty.Source()
		if hex == dirty {
			t.Errorf("%s: treatment arms identical", p.Snippet.ID)
		}
		if !strings.Contains(hex, "__fastcall") {
			t.Errorf("%s: control arm missing Hex-Rays idiom:\n%s", p.Snippet.ID, hex)
		}
		if p.OrigSource == "" {
			t.Errorf("%s: missing original source", p.Snippet.ID)
		}
		// Paper §III-B: snippets fit on one screen (≤50 lines).
		for arm, src := range map[string]string{"hexrays": hex, "dirty": dirty} {
			if n := strings.Count(src, "\n"); n > 50 {
				t.Errorf("%s %s arm is %d lines, exceeds the 50-line screen constraint", p.Snippet.ID, arm, n)
			}
		}
	}
}

func TestAEEKReproducesPaperFailures(t *testing.T) {
	s, _ := SnippetByID("AEEK")
	p, err := PrepareOptCtx(context.Background(), s, opt.O0)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	dirty := p.Dirty.Source()
	// Fig 7b: the dedupe produces indexa, the never-returned local is
	// named ret, and the extracted element is char *next.
	for _, want := range []string{"indexa", "ret", "char *next", "array_t_0 *array"} {
		if !strings.Contains(dirty, want) {
			t.Errorf("AEEK DIRTY output missing %q:\n%s", want, dirty)
		}
	}
	// Control arm shows the famous access pattern.
	if !strings.Contains(p.HexRays.Source(), "*(_QWORD *)(8LL * ") {
		t.Errorf("AEEK control arm missing scaled struct access:\n%s", p.HexRays.Source())
	}
}

func TestPostorderReproducesArgSwap(t *testing.T) {
	s, _ := SnippetByID("POSTORDER")
	p, err := PrepareOptCtx(context.Background(), s, opt.O0)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	dirty := p.Dirty.Source()
	// Fig 4b: tree234 *t, void *e, cmpfn234 cmp — with the call through e.
	for _, want := range []string{"tree234 *t", "void *e", "cmpfn234 cmp", "e(cmp, t)"} {
		if !strings.Contains(dirty, want) {
			t.Errorf("POSTORDER DIRTY output missing %q:\n%s", want, dirty)
		}
	}
	// Control arm: a2(a3, a1), the paper's Fig 4a call.
	if !strings.Contains(p.HexRays.Source(), "a2(a3, a1)") {
		t.Errorf("POSTORDER control arm missing a2(a3, a1):\n%s", p.HexRays.Source())
	}
}

func TestBAPLReproducesSignature(t *testing.T) {
	s, _ := SnippetByID("BAPL")
	p, err := PrepareOptCtx(context.Background(), s, opt.O0)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	dirty := p.Dirty.Source()
	for _, want := range []string{"SSL *s", "const char *str", "size_t n"} {
		if !strings.Contains(dirty, want) {
			t.Errorf("BAPL DIRTY output missing %q:\n%s", want, dirty)
		}
	}
	if !strings.Contains(p.HexRays.Source(), "_BYTE *a2") {
		t.Errorf("BAPL control arm missing _BYTE *a2:\n%s", p.HexRays.Source())
	}
}

func TestCalibrationShapes(t *testing.T) {
	var sumDelta float64
	var count int
	misleading := 0
	for _, s := range Snippets() {
		for _, q := range s.Questions {
			sumDelta += q.Calib.TreatDelta
			count++
			if q.Calib.Misleading {
				misleading++
			}
			if q.Calib.TimeMeanSec <= 0 || q.Calib.TimeSDSec <= 0 {
				t.Errorf("%s: non-positive time calibration", q.ID)
			}
		}
	}
	// Paper Table I: the average DIRTY effect is slightly negative.
	avg := sumDelta / float64(count)
	if avg >= 0 || avg < -0.5 {
		t.Errorf("mean treatment delta = %v, want slightly negative", avg)
	}
	if misleading != 2 {
		t.Errorf("misleading questions = %d, want 2 (AEEK-Q2, POSTORDER-Q2)", misleading)
	}
}

func TestTrainingFilesAndModel(t *testing.T) {
	files, err := TrainingFiles()
	if err != nil {
		t.Fatalf("TrainingFiles: %v", err)
	}
	if len(files) < 10 {
		t.Errorf("training files = %d, want ≥10", len(files))
	}
	m, err := namerec.TrainModel(files)
	if err != nil {
		t.Fatalf("TrainModel: %v", err)
	}
	if m.NumExamples() < 30 {
		t.Errorf("training variables = %d, want ≥30", m.NumExamples())
	}
}

func TestEmbeddingContexts(t *testing.T) {
	ctxs, err := EmbeddingContexts()
	if err != nil {
		t.Fatalf("EmbeddingContexts: %v", err)
	}
	if len(ctxs) < 15 {
		t.Errorf("contexts = %d, want ≥15", len(ctxs))
	}
	m, err := embed.Train(ctxs, &embed.Config{Dim: 16})
	if err != nil {
		t.Fatalf("embed.Train on corpus contexts: %v", err)
	}
	// The study vocabulary must be embeddable.
	for _, word := range []string{"klen", "index", "buffer", "tree", "aux"} {
		if !m.Contains(word) {
			t.Errorf("embedding vocabulary missing %q", word)
		}
	}
}

// TestEmbeddingContextsStableOrder guards against map-iteration order
// leaking into the training input: context order decides embedding
// vocabulary IDs and co-occurrence windows, so any run-to-run shuffle here
// (the DirtyOverrides maps are the tempting source) makes the trained
// model — and every downstream metric — nondeterministic.
func TestEmbeddingContextsStableOrder(t *testing.T) {
	a, err := EmbeddingContexts()
	if err != nil {
		t.Fatalf("EmbeddingContexts: %v", err)
	}
	for trial := 0; trial < 5; trial++ {
		b, err := EmbeddingContexts()
		if err != nil {
			t.Fatalf("EmbeddingContexts: %v", err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("trial %d: context order changed between calls", trial)
		}
	}
}

func TestQuestionKindString(t *testing.T) {
	kinds := []QuestionKind{KindValueAt, KindPurpose, KindReturns, KindArgMatch}
	for _, k := range kinds {
		if strings.HasPrefix(k.String(), "QuestionKind(") {
			t.Errorf("missing String for %d", int(k))
		}
	}
}

func TestVariantPerfectAnnotations(t *testing.T) {
	variants := VariantPerfectAnnotations()
	if len(variants) != 4 {
		t.Fatalf("variants = %d, want 4", len(variants))
	}
	for _, v := range variants {
		if v.SwapParams != [2]string{} {
			t.Errorf("%s: swap not removed", v.ID)
		}
		for _, q := range v.Questions {
			if q.Calib.Misleading {
				t.Errorf("%s/%s: still misleading", v.ID, q.ID)
			}
		}
		// Must still prepare end-to-end.
		if _, err := PrepareOptCtx(context.Background(), v, opt.O0); err != nil {
			t.Errorf("%s: %v", v.ID, err)
		}
	}
	// Mutating a variant must not touch the canonical snippets.
	orig, _ := SnippetByID("POSTORDER")
	if orig.SwapParams == [2]string{} {
		t.Error("variant mutation leaked into the canonical POSTORDER snippet")
	}
}

func TestVariantHarderQuestions(t *testing.T) {
	base := Snippets()
	hard := VariantHarderQuestions()
	for i := range base {
		for j := range base[i].Questions {
			got := hard[i].Questions[j].Calib.ControlLogit
			want := base[i].Questions[j].Calib.ControlLogit - 1
			if got != want {
				t.Errorf("%s: logit = %v, want %v", hard[i].Questions[j].ID, got, want)
			}
		}
	}
}

func TestSnippetCloneIsDeep(t *testing.T) {
	s, _ := SnippetByID("AEEK")
	c := s.Clone()
	c.DirtyOverrides["a"] = namerec.Prediction{Name: "mutated"}
	c.Questions[0].Calib.ControlLogit = 99
	fresh, _ := SnippetByID("AEEK")
	if fresh.DirtyOverrides["a"].Name == "mutated" {
		t.Error("override mutation leaked through Clone")
	}
	if fresh.Questions[0].Calib.ControlLogit == 99 {
		t.Error("question mutation leaked through Clone")
	}
}

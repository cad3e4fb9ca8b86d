package qualcode

import (
	"context"
	"errors"
	"math"
	"testing"

	"decompstudy/internal/compile/opt"
	"decompstudy/internal/corpus"
	"decompstudy/internal/embed"
)

func TestSynthesizeThemes(t *testing.T) {
	responses := []CodedResponse{
		{UserID: 5, Code: "usage-demonstrates-purpose", Correct: true},
		{UserID: 6, Code: "usage-demonstrates-purpose", Correct: true},
		{UserID: 5, Code: "usage-demonstrates-purpose", Correct: false},
		{UserID: 1, Code: "names-indicate-usage", Correct: false},
		{UserID: 2, Code: "names-indicate-usage", Correct: false},
		{UserID: 3, Code: ""}, // uncoded, ignored
	}
	themes, err := SynthesizeThemes(responses)
	if err != nil {
		t.Fatalf("SynthesizeThemes: %v", err)
	}
	if len(themes) != 2 {
		t.Fatalf("themes = %d, want 2", len(themes))
	}
	// Sorted by code: names-indicate-usage first.
	if themes[0].Code != "names-indicate-usage" || themes[0].Label() != "(P1, P2)" {
		t.Errorf("theme[0] = %+v (label %s)", themes[0], themes[0].Label())
	}
	if themes[1].CorrectRate <= themes[0].CorrectRate {
		t.Errorf("usage-theme correct rate %v should exceed names-theme %v (the §IV-A pattern)",
			themes[1].CorrectRate, themes[0].CorrectRate)
	}
}

func TestSynthesizeThemesEmpty(t *testing.T) {
	if _, err := SynthesizeThemes(nil); !errors.Is(err, ErrNoData) {
		t.Fatalf("err = %v, want ErrNoData", err)
	}
	if _, err := SynthesizeThemes([]CodedResponse{{UserID: 1}}); !errors.Is(err, ErrNoData) {
		t.Fatalf("uncoded only: err = %v, want ErrNoData", err)
	}
}

func panelModel(t *testing.T) *embed.Model {
	t.Helper()
	ctxs, err := corpus.EmbeddingContexts()
	if err != nil {
		t.Fatalf("EmbeddingContexts: %v", err)
	}
	m, err := embed.Train(ctxs, &embed.Config{Dim: 16})
	if err != nil {
		t.Fatalf("embed.Train: %v", err)
	}
	return m
}

func studyPairSets(t *testing.T) []PairSet {
	t.Helper()
	prepared, err := corpus.PrepareSnippetsOpt(context.Background(), corpus.Snippets(), opt.O0)
	if err != nil {
		t.Fatalf("PrepareSnippetsOpt: %v", err)
	}
	var sets []PairSet
	for _, p := range prepared {
		sets = append(sets, PairSet{
			SnippetID: p.Snippet.ID,
			NamePairs: p.Dirty.MetricPairs(),
			TypePairs: p.Dirty.TypePairs(),
		})
	}
	return sets
}

func TestRatePanelAgreement(t *testing.T) {
	res, err := RatePanel(studyPairSets(t), panelModel(t), &PanelConfig{Seed: 3})
	if err != nil {
		t.Fatalf("RatePanel: %v", err)
	}
	// Paper §IV-E: ordinal Krippendorff α = 0.872 — substantial agreement.
	if res.Alpha < 0.75 || res.Alpha > 0.97 {
		t.Errorf("alpha = %v, want substantial agreement ≈0.87", res.Alpha)
	}
	if res.Units < 30 {
		t.Errorf("rated units = %d, want ≥30 (names + types across 4 snippets)", res.Units)
	}
	for _, id := range []string{"AEEK", "BAPL", "POSTORDER", "TC"} {
		v, ok := res.VariableScore[id]
		if !ok || math.IsNaN(v) || v < 1 || v > 5 {
			t.Errorf("variable score for %s = %v", id, v)
		}
	}
}

func TestRatePanelSimilarityOrdering(t *testing.T) {
	res, err := RatePanel(studyPairSets(t), panelModel(t), &PanelConfig{Seed: 3})
	if err != nil {
		t.Fatalf("RatePanel: %v", err)
	}
	// The postorder annotations are textually close to ground truth (t→t,
	// ret→ret) despite being misassigned; experts judging name pairs in
	// isolation rate them most similar — the RQ5 disconnect.
	if res.VariableScore["POSTORDER"] <= res.VariableScore["TC"] {
		t.Errorf("POSTORDER variable similarity %v should exceed TC %v",
			res.VariableScore["POSTORDER"], res.VariableScore["TC"])
	}
}

func TestRatePanelDeterministic(t *testing.T) {
	sets := studyPairSets(t)
	m := panelModel(t)
	r1, err := RatePanel(sets, m, &PanelConfig{Seed: 9})
	if err != nil {
		t.Fatalf("RatePanel: %v", err)
	}
	r2, err := RatePanel(sets, m, &PanelConfig{Seed: 9})
	if err != nil {
		t.Fatalf("RatePanel: %v", err)
	}
	if r1.Alpha != r2.Alpha {
		t.Error("panel not deterministic for fixed seed")
	}
}

func TestRatePanelNoData(t *testing.T) {
	if _, err := RatePanel(nil, nil, nil); !errors.Is(err, ErrNoData) {
		t.Fatalf("err = %v, want ErrNoData", err)
	}
}

package modelstore

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"decompstudy/internal/corpus"
	"decompstudy/internal/embed"
	"decompstudy/internal/fault"
	"decompstudy/internal/namerec"
)

var testContexts = [][]string{
	{"buffer_length", "buf", "cap", "len"},
	{"copy_bytes", "dest", "src", "n", "i"},
	{"find_char", "str", "ch", "len", "pos"},
}

func testEmbedCfg() *embed.Config { return &embed.Config{Dim: 8, Iterations: 5} }

func TestSingleFlightTrainsOnce(t *testing.T) {
	s := New()
	ctx := context.Background()
	const callers = 16
	models := make([]*embed.Model, callers)
	var wg sync.WaitGroup
	for i := range models {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := s.EmbedModel(ctx, testContexts, testEmbedCfg())
			if err != nil {
				t.Errorf("EmbedModel: %v", err)
				return
			}
			models[i] = m
		}()
	}
	wg.Wait()
	if st := s.Stats(); st.Misses != 1 {
		t.Errorf("Misses = %d, want 1 (single-flight should dedup %d concurrent callers)", st.Misses, callers)
	}
	for i, m := range models {
		if m != models[0] {
			t.Fatalf("caller %d got a different model pointer; the store must share one immutable model", i)
		}
	}
	if st := s.Stats(); st.Lookups != callers || st.Hits+st.Misses != callers {
		t.Errorf("Stats = %+v; want %d lookups split between hits and misses", st, callers)
	}
}

// TestNilStoreTrainsDirectly: -no-model-cache leaves no store in the
// context, and both model lookups on the nil store must train exactly what
// the trainers produce directly — deeply equal, injected faults included.
func TestNilStoreTrainsDirectly(t *testing.T) {
	ctx := context.Background()
	var s *Store
	em, err := s.EmbedModel(ctx, testContexts, testEmbedCfg())
	if err != nil {
		t.Fatal(err)
	}
	want, err := embed.TrainCtx(ctx, testContexts, testEmbedCfg())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(em, want) {
		t.Error("nil-store embed model differs from a direct embed.TrainCtx")
	}

	nm, err := s.NamerecModel(ctx, corpus.TrainingSources(), corpus.TrainingFiles)
	if err != nil {
		t.Fatal(err)
	}
	files, err := corpus.TrainingFiles()
	if err != nil {
		t.Fatal(err)
	}
	wantNM, err := namerec.TrainModelCtx(ctx, files)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(nm, wantNM) {
		t.Error("nil-store namerec model differs from a direct namerec.TrainModelCtx")
	}

	plan, err := fault.ParsePlan("seed=1; embed.train:error; namerec.train:error")
	if err != nil {
		t.Fatal(err)
	}
	armed := fault.With(ctx, fault.NewInjector(plan, 0))
	if _, err := s.EmbedModel(armed, testContexts, testEmbedCfg()); !errors.Is(err, embed.ErrTrain) || !errors.Is(err, fault.ErrInjected) {
		t.Errorf("nil-store EmbedModel under fault = %v, want embed.ErrTrain wrapping ErrInjected", err)
	}
	if _, err := s.NamerecModel(armed, corpus.TrainingSources(), corpus.TrainingFiles); !errors.Is(err, namerec.ErrTrain) || !errors.Is(err, fault.ErrInjected) {
		t.Errorf("nil-store NamerecModel under fault = %v, want namerec.ErrTrain wrapping ErrInjected", err)
	}
}

func TestFailedTrainingStoresNothing(t *testing.T) {
	// An injected training fault must propagate unchanged and leave the
	// store empty — never a poisoned entry.
	s := New()
	plan, err := fault.ParsePlan("seed=1; embed.train:error")
	if err != nil {
		t.Fatal(err)
	}
	armed := fault.With(context.Background(), fault.NewInjector(plan, 0))

	if _, err := s.EmbedModel(armed, testContexts, testEmbedCfg()); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("EmbedModel under fault = %v, want ErrInjected chain", err)
	}
	if !errors.Is(func() error { _, err := s.EmbedModel(armed, testContexts, testEmbedCfg()); return err }(), fault.ErrInjected) {
		t.Fatal("second faulted call should fail again, not hit a poisoned entry")
	}
	// With the fault gone, the same store trains successfully.
	m, err := s.EmbedModel(context.Background(), testContexts, testEmbedCfg())
	if err != nil || m == nil {
		t.Fatalf("clean retry = %v, %v; want a model", m, err)
	}
	if st := s.Stats(); st.Hits != 0 {
		t.Errorf("Hits = %d, want 0 — no faulted result may have been cached", st.Hits)
	}
}

func TestHitRate(t *testing.T) {
	if r := (Stats{}).HitRate(); r != 0 {
		t.Errorf("zero Stats HitRate = %v, want 0", r)
	}
	if r := (Stats{Lookups: 4, Hits: 2, Misses: 2}).HitRate(); r != 0.5 {
		t.Errorf("HitRate = %v, want 0.5", r)
	}
}

func TestContextRoundTrip(t *testing.T) {
	if From(context.Background()) != nil {
		t.Error("From(empty ctx) should be nil")
	}
	s := New()
	if got := From(With(context.Background(), s)); got != s {
		t.Error("With/From should round-trip the store")
	}
	ctx := context.Background()
	if With(ctx, nil) != ctx {
		t.Error("With(nil) should return the context unchanged")
	}
}

func TestKeySensitivity(t *testing.T) {
	base := EmbedKey(testContexts, testEmbedCfg())
	if EmbedKey(testContexts, testEmbedCfg()) != base {
		t.Error("EmbedKey is not deterministic")
	}
	if EmbedKey(testContexts, &embed.Config{Dim: 9, Iterations: 5}) == base {
		t.Error("config change must change the key")
	}
	altered := [][]string{{"buffer_length", "buf", "cap", "len"}, {"copy_bytes", "dest", "src", "n", "X"}, testContexts[2]}
	if EmbedKey(altered, testEmbedCfg()) == base {
		t.Error("corpus change must change the key")
	}
	// Length framing: moving a token across a context boundary must not
	// collide even though the concatenated content is identical.
	joined := [][]string{{"a", "b"}, {"c"}}
	split := [][]string{{"a"}, {"b", "c"}}
	if EmbedKey(joined, testEmbedCfg()) == EmbedKey(split, testEmbedCfg()) {
		t.Error("context framing must be part of the key")
	}

	nbase := NamerecKey(corpus.TrainingSources())
	if NamerecKey(corpus.TrainingSources()) != nbase {
		t.Error("NamerecKey is not deterministic")
	}
	altSources := corpus.TrainingSources()
	altSources[0] += " "
	if NamerecKey(altSources) == nbase {
		t.Error("source change must change the namerec key")
	}
}

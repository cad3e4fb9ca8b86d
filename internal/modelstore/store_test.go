package modelstore

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"decompstudy/internal/corpus"
	"decompstudy/internal/csrc"
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
	if st := s.Stats(); st.Trains != 1 {
		t.Errorf("Trains = %d, want 1 (single-flight should dedup %d concurrent callers)", st.Trains, callers)
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

func TestDiskRoundTripBitIdentical(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	cold, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	em, err := cold.EmbedModel(ctx, testContexts, testEmbedCfg())
	if err != nil {
		t.Fatal(err)
	}
	nm, err := cold.NamerecModel(ctx, corpus.TrainingSources(), corpus.TrainingFiles)
	if err != nil {
		t.Fatal(err)
	}
	if st := cold.Stats(); st.Trains != 2 || st.DiskHits != 0 {
		t.Fatalf("cold Stats = %+v, want 2 trains and 0 disk hits", st)
	}

	// A second store over the same directory must load both models from
	// disk — without parsing the training corpus — and the loaded models
	// must serialize to the exact bytes the trained ones do: bit-identity,
	// not just behavioral equivalence.
	warm, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	em2, err := warm.EmbedModel(ctx, testContexts, testEmbedCfg())
	if err != nil {
		t.Fatal(err)
	}
	nm2, err := warm.NamerecModel(ctx, corpus.TrainingSources(), func() ([]*csrc.File, error) {
		t.Error("disk hit must not parse the training corpus")
		return corpus.TrainingFiles()
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := warm.Stats(); st.Trains != 0 || st.DiskHits != 2 || st.DiskErrors != 0 {
		t.Fatalf("warm Stats = %+v, want 0 trains, 2 disk hits, 0 disk errors", st)
	}

	b1, _ := em.MarshalBinary()
	b2, _ := em2.MarshalBinary()
	if !bytes.Equal(b1, b2) {
		t.Error("embed model round-tripped through disk is not bit-identical")
	}
	n1, _ := nm.MarshalBinary()
	n2, _ := nm2.MarshalBinary()
	if !bytes.Equal(n1, n2) {
		t.Error("namerec model round-tripped through disk is not bit-identical")
	}
}

func TestCorruptDiskEntryRetrains(t *testing.T) {
	ctx := context.Background()
	corruptions := map[string]func([]byte) []byte{
		"truncated":    func(b []byte) []byte { return b[:len(b)/2] },
		"flipped-byte": func(b []byte) []byte { b[len(b)-8] ^= 0xff; return b },
		"bad-magic":    func(b []byte) []byte { b[0] = 'X'; return b },
		"empty":        func([]byte) []byte { return nil },
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			cold, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			em, err := cold.EmbedModel(ctx, testContexts, testEmbedCfg())
			if err != nil {
				t.Fatal(err)
			}
			path := cold.path(EmbedKey(testContexts, testEmbedCfg()))
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, corrupt(data), 0o644); err != nil {
				t.Fatal(err)
			}

			warm, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			em2, err := warm.EmbedModel(ctx, testContexts, testEmbedCfg())
			if err != nil {
				t.Fatalf("a corrupt disk entry must retrain, not fail: %v", err)
			}
			st := warm.Stats()
			if st.Trains != 1 {
				t.Errorf("Trains = %d, want 1 (corrupt entry treated as a miss)", st.Trains)
			}
			if name != "empty" && st.DiskErrors == 0 {
				t.Error("DiskErrors = 0, want the corruption counted")
			}
			b1, _ := em.MarshalBinary()
			b2, _ := em2.MarshalBinary()
			if !bytes.Equal(b1, b2) {
				t.Error("retrained model differs from the original")
			}
		})
	}
}

func TestOpenRejectsUnusableDirs(t *testing.T) {
	file := filepath.Join(t.TempDir(), "plain-file")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, dir := range map[string]string{
		"missing": filepath.Join(t.TempDir(), "nope", "deeper"),
		"file":    file,
	} {
		t.Run(name, func(t *testing.T) {
			_, err := Open(dir)
			if !errors.Is(err, ErrCacheDir) {
				t.Fatalf("Open(%s) err = %v, want ErrCacheDir", dir, err)
			}
			if !containsPath(err, dir) {
				t.Errorf("error %q does not name the path %q", err, dir)
			}
		})
	}
}

func containsPath(err error, path string) bool {
	return err != nil && bytes.Contains([]byte(err.Error()), []byte(path))
}

func TestFromFlags(t *testing.T) {
	if s, err := FromFlags("", true); s != nil || err != nil {
		t.Errorf("FromFlags(disable) = %v, %v; want nil store, nil error", s, err)
	}
	s, err := FromFlags("", false)
	if s == nil || err != nil || s.Dir() != "" {
		t.Errorf("FromFlags(default) = %v, %v; want in-memory store", s, err)
	}
	dir := t.TempDir()
	s, err = FromFlags(dir, false)
	if err != nil || s.Dir() != dir {
		t.Errorf("FromFlags(%s) = %v, %v; want disk store", dir, s, err)
	}
	if _, err := FromFlags(filepath.Join(dir, "missing"), false); !errors.Is(err, ErrCacheDir) {
		t.Errorf("FromFlags(bad dir) err = %v, want ErrCacheDir", err)
	}
}

// TestNilStoreTrainsDirectly: -no-model-cache leaves no store in the
// context, and both model lookups on the nil store must train exactly what
// the trainers produce directly — bit for bit, injected faults included.
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
	b1, _ := em.MarshalBinary()
	b2, _ := want.MarshalBinary()
	if !bytes.Equal(b1, b2) {
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
	n1, _ := nm.MarshalBinary()
	n2, _ := wantNM.MarshalBinary()
	if !bytes.Equal(n1, n2) {
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
	// store empty — never a poisoned entry in memory or on disk.
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
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
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("failed training left %d file(s) on disk", len(entries))
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
	if r := (Stats{Lookups: 4, Hits: 1, DiskHits: 1, Misses: 2}).HitRate(); r != 0.5 {
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

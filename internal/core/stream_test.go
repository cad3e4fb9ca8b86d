package core

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"decompstudy/internal/fault"
	"decompstudy/internal/modelstore"
	"decompstudy/internal/obs"
	"decompstudy/internal/par"
)

// studyFingerprint flattens everything a run produces that downstream
// artifacts read: the collected dataset, the per-snippet metric reports
// (with the panel scores folded in), and the prepared corpus text. Two
// studies with equal fingerprints render byte-identical artifacts.
func studyFingerprint(s *Study) string {
	var b strings.Builder
	b.WriteString(s.Dataset.CSV())
	ids := make([]string, 0, len(s.MetricReports))
	for id := range s.MetricReports {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		fmt.Fprintf(&b, "%s: %+v\n", id, s.MetricReports[id])
	}
	for _, p := range s.Prepared {
		b.WriteString(p.Snippet.ID)
		b.WriteString(p.Dirty.Source())
		b.WriteString(p.HexRays.Source())
	}
	return b.String()
}

// seed26Fingerprint is the sha256 of studyFingerprint for the default
// (seed 26) study. It was recorded from the barrier-synchronized scheduler
// at jobs=1 — every stage completing before the next started — before
// that scheduler was deleted, so the streaming DAG stays pinned to the
// reference semantics it replaced.
const seed26Fingerprint = "a4c2dab9ee0e5fe82b1b9719113e482517070c1f222c869abc0f2eabbeb044c4"

func fingerprintSum(s *Study) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(studyFingerprint(s))))
}

// TestStreamingDeterminismMatrix pins the scheduler's core invariant: any
// worker count and any model store state (absent, cold, warm) produce the same study, byte for byte, as the pinned reference.
func TestStreamingDeterminismMatrix(t *testing.T) {
	warmMem := modelstore.New()
	cases := []struct {
		name string
		ctx  func() context.Context
		cfg  *Config
	}{
		{"stream-jobs1", context.Background, &Config{Jobs: 1}},
		{"stream-jobs8", context.Background, &Config{Jobs: 8}},
		{"stream-store-cold", func() context.Context {
			return modelstore.With(context.Background(), warmMem)
		}, &Config{Jobs: 8}},
		{"stream-store-warm", func() context.Context {
			return modelstore.With(context.Background(), warmMem)
		}, &Config{Jobs: 8}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewCtx(tc.ctx(), tc.cfg)
			if err != nil {
				t.Fatalf("NewCtx: %v", err)
			}
			if got := fingerprintSum(s); got != seed26Fingerprint {
				t.Errorf("study fingerprint = %s, want the pinned reference %s", got, seed26Fingerprint)
			}
		})
	}
	if st := warmMem.Stats(); st.Misses != 2 {
		t.Errorf("shared store Misses = %d, want 2 (one embed + one namerec training across two runs)", st.Misses)
	}
	if st := warmMem.Stats(); st.Hits != 2 {
		t.Errorf("shared store Hits = %d, want 2 (two models × one rerun study)", st.Hits)
	}
}

// TestEmbedCacheCountersMatchSharedModel: two studies on one model store
// and one metrics registry score through one shared embedding model, so
// the registry's embed-cache hit and miss totals must equal that model's
// own CacheStats — each lookup counted once, never a run's cumulative
// totals re-added at the end of every run.
func TestEmbedCacheCountersMatchSharedModel(t *testing.T) {
	reg := obs.NewRegistry()
	ctx := modelstore.With(obs.With(context.Background(), &obs.Obs{Metrics: reg}), modelstore.New())
	var runs [2]*Study
	for i := range runs {
		s, err := NewCtx(ctx, nil)
		if err != nil {
			t.Fatalf("run %d: %v", i+1, err)
		}
		runs[i] = s
	}
	if runs[0].Embed != runs[1].Embed {
		t.Fatal("the two runs did not share one embedding model through the store")
	}
	var hits, misses int64
	for key, v := range reg.Snapshot().Counters {
		if !strings.HasPrefix(key, "embed.cache.") {
			continue
		}
		switch {
		case strings.Contains(key, "hit"):
			hits += v
		case strings.Contains(key, "miss"):
			misses += v
		}
	}
	st := runs[1].Embed.CacheStats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("CacheStats = %+v, want both hits and misses after two runs", st)
	}
	if hits != st.Hits || misses != st.Misses {
		t.Errorf("registry embed-cache totals = %d hits, %d misses; want the shared model's %d hits, %d misses",
			hits, misses, st.Hits, st.Misses)
	}
}

// TestStreamingStoreFaultIsolation arms an embed-training fault with a
// store attached: the run must fail exactly as it does without a store,
// and the poisoned training must leave no entry behind — a clean rerun on
// the same store trains fresh and matches the pinned reference study.
func TestStreamingStoreFaultIsolation(t *testing.T) {
	t.Run("stream", func(t *testing.T) {
		st := modelstore.New()
		plan, err := fault.ParsePlan("seed=1; embed.train:error")
		if err != nil {
			t.Fatal(err)
		}
		armed := fault.With(modelstore.With(context.Background(), st), fault.NewInjector(plan, 0))
		_, err = NewCtx(armed, nil)
		if !errors.Is(err, ErrPipeline) || !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("faulted run err = %v, want ErrPipeline wrapping ErrInjected", err)
		}

		s, err := NewCtx(modelstore.With(context.Background(), st), nil)
		if err != nil {
			t.Fatalf("clean rerun on the same store: %v", err)
		}
		if stats := st.Stats(); stats.Misses != 3 {
			// Failed embed train + successful embed and namerec trains.
			t.Errorf("Misses = %d, want 3 — the faulted training must not be cached", stats.Misses)
		}
		if got := fingerprintSum(s); got != seed26Fingerprint {
			t.Errorf("study after a faulted-then-clean store = %s, want the pinned reference %s", got, seed26Fingerprint)
		}
	})
}

// TestStreamingRespectsJobsFromContext checks the scheduler honors
// par.WithJobs when Config.Jobs is zero.
func TestStreamingRespectsJobsFromContext(t *testing.T) {
	ctx := par.WithJobs(context.Background(), 2)
	s, err := NewCtx(ctx, nil)
	if err != nil {
		t.Fatalf("NewCtx: %v", err)
	}
	if len(s.Prepared) != 4 {
		t.Errorf("prepared snippets = %d, want 4", len(s.Prepared))
	}
}

package modelstore

import (
	"context"
	"sync"
	"testing"

	"decompstudy/internal/embed"
)

// TestConcurrentGetTrainStorm is the serving hot path's guarantee: many
// goroutines hammering the same key must observe exactly one training run
// and all receive the same immutable model pointer. Run under -race this
// also proves the post-train read path is lock-free safe.
func TestConcurrentGetTrainStorm(t *testing.T) {
	s := New()
	ctx := context.Background()
	cfg := testEmbedCfg()

	const (
		goroutines = 64
		rounds     = 4
	)
	models := make([]*embed.Model, goroutines*rounds)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start // maximize contention: everyone arrives at once
			for r := 0; r < rounds; r++ {
				m, err := s.EmbedModel(ctx, testContexts, cfg)
				if err != nil {
					t.Errorf("goroutine %d round %d: %v", g, r, err)
					return
				}
				models[g*rounds+r] = m
			}
		}(g)
	}
	close(start)
	wg.Wait()

	first := models[0]
	if first == nil {
		t.Fatal("no model returned")
	}
	for i, m := range models {
		if m != first {
			t.Fatalf("call %d returned a different model pointer: single-flight broken", i)
		}
	}
	st := s.Stats()
	if st.Misses != 1 {
		t.Fatalf("Misses = %d, want exactly 1 across %d concurrent gets", st.Misses, goroutines*rounds)
	}
	if st.Lookups != goroutines*rounds {
		t.Errorf("Lookups = %d, want %d", st.Lookups, goroutines*rounds)
	}
	if st.Hits != st.Lookups-1 {
		t.Errorf("Hits = %d, want %d (every lookup after the first is served warm)", st.Hits, st.Lookups-1)
	}
}

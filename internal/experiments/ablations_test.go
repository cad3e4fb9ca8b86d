package experiments

import (
	"context"
	"strings"
	"sync"
	"testing"

	"decompstudy/internal/modelstore"
	"decompstudy/internal/par"
)

var (
	ablOnce sync.Once
	ablText string
	ablRes  []AblationResult
	ablErr  error
)

func sharedAblations(t *testing.T) ([]AblationResult, string) {
	t.Helper()
	ablOnce.Do(func() {
		ablText, ablRes, ablErr = Ablations(99)
	})
	if ablErr != nil {
		t.Fatalf("Ablations: %v", ablErr)
	}
	return ablRes, ablText
}

func TestAblationsRun(t *testing.T) {
	results, text := sharedAblations(t)
	if len(results) != 5 {
		t.Fatalf("ablations = %d, want 5", len(results))
	}
	for _, name := range []string{"baseline", "perfect-annotations", "skepticism-training", "no-quality-filter", "harder-questions"} {
		if !strings.Contains(text, name) {
			t.Errorf("report missing %q", name)
		}
	}
}

func byName(results []AblationResult) map[string]AblationResult {
	out := map[string]AblationResult{}
	for _, r := range results {
		out[r.Name] = r
	}
	return out
}

func TestAblationPerfectAnnotationsFlipsEffect(t *testing.T) {
	results, _ := sharedAblations(t)
	m := byName(results)
	base, perfect := m["baseline"], m["perfect-annotations"]
	if perfect.DirtyLogit <= base.DirtyLogit {
		t.Errorf("repairing annotations should raise the treatment effect: baseline %+.3f, perfect %+.3f",
			base.DirtyLogit, perfect.DirtyLogit)
	}
	if perfect.PostorderGap >= base.PostorderGap-0.2 {
		t.Errorf("repairing the swap should close the POSTORDER-Q2 gap: baseline %.2f, perfect %.2f",
			base.PostorderGap, perfect.PostorderGap)
	}
}

func TestAblationSkepticismShrinksGap(t *testing.T) {
	results, _ := sharedAblations(t)
	m := byName(results)
	base, skeptic := m["baseline"], m["skepticism-training"]
	if skeptic.PostorderGap >= base.PostorderGap {
		t.Errorf("skepticism training should shrink the misleading-annotation gap: baseline %.2f, trained %.2f",
			base.PostorderGap, skeptic.PostorderGap)
	}
}

func TestAblationNoFilterKeepsRushers(t *testing.T) {
	results, _ := sharedAblations(t)
	m := byName(results)
	base, noFilter := m["baseline"], m["no-quality-filter"]
	if noFilter.Retained <= base.Retained {
		t.Errorf("disabling the quality filter should retain more participants: %d vs %d",
			noFilter.Retained, base.Retained)
	}
}

func TestAblationHarderQuestionsKeepsNull(t *testing.T) {
	results, _ := sharedAblations(t)
	m := byName(results)
	hard := m["harder-questions"]
	if hard.DirtyLogitP < 0.05 && hard.DirtyLogit > 0.4 {
		t.Errorf("harder questions should not manufacture a positive treatment effect: %+.3f (p=%.3f)",
			hard.DirtyLogit, hard.DirtyLogitP)
	}
}

// TestAblationGridSharesOneTraining pins the batched grid's model reuse:
// the five cells resolve both models (embedding + name recovery) through
// one store, so exactly two trainings happen and the other eight lookups
// are hits, at any worker count.
func TestAblationGridSharesOneTraining(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		st := modelstore.New()
		ctx := modelstore.With(par.WithJobs(context.Background(), jobs), st)
		if _, _, err := AblationsCtx(ctx, 1); err != nil {
			t.Fatalf("jobs=%d: AblationsCtx: %v", jobs, err)
		}
		s := st.Stats()
		if s.Trains != 2 {
			t.Errorf("jobs=%d: %d trainings, want 2 (one per model for all five cells)", jobs, s.Trains)
		}
		if s.Lookups != 10 || s.Hits+s.DiskHits != 8 {
			t.Errorf("jobs=%d: %d lookups with %d hits + %d disk hits, want 10 with 8 served without training",
				jobs, s.Lookups, s.Hits, s.DiskHits)
		}
	}
}

package corpus

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"decompstudy/internal/analysis"
	"decompstudy/internal/compile"
	"decompstudy/internal/compile/opt"
	"decompstudy/internal/obs"
	"decompstudy/internal/par"
)

func TestPrepareSnippetsJoinsAllErrors(t *testing.T) {
	good, ok := SnippetByID("AEEK")
	if !ok {
		t.Fatal("AEEK snippet missing")
	}
	// bad1 fails at parse; bad2 parses but lacks the named function, so the
	// two failures come from different pipeline stages.
	bad1 := &Snippet{ID: "BAD1", FuncName: "f", Source: "int f( {"}
	bad2 := &Snippet{ID: "BAD2", FuncName: "not_defined", Source: "void g(void) {}"}

	prepared, err := PrepareSnippetsOpt(context.Background(), []*Snippet{bad1, good, bad2}, opt.O0)
	if err == nil {
		t.Fatal("want joined error, got nil")
	}
	if len(prepared) != 1 || prepared[0].Snippet.ID != "AEEK" {
		t.Fatalf("want the one good snippet prepared, got %d", len(prepared))
	}
	msg := err.Error()
	// errors.Join must carry BOTH failures, not just the first.
	if !strings.Contains(msg, "BAD1") {
		t.Errorf("joined error missing BAD1: %v", err)
	}
	if !strings.Contains(msg, "BAD2") {
		t.Errorf("joined error missing BAD2: %v", err)
	}
}

// TestPrepareSnippetsDeterministicUnderFanOut scrambles completion order —
// a deliberately slow (large but valid) snippet goes first, instant
// failures after it — and asserts that fan-out still reports successes and
// joined failures in input order, identically at every worker count.
func TestPrepareSnippetsDeterministicUnderFanOut(t *testing.T) {
	var b strings.Builder
	b.WriteString("int slow_fn(int x) {\n")
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&b, "  x = x + %d;\n  x = x - %d;\n", i+1, i)
	}
	b.WriteString("  return x;\n}\n")
	slow := &Snippet{ID: "SLOW", FuncName: "slow_fn", Source: b.String()}
	badA := &Snippet{ID: "BAD_A", FuncName: "f", Source: "int f( {"}
	badB := &Snippet{ID: "BAD_B", FuncName: "missing_fn", Source: "void g(void) {}"}
	input := []*Snippet{slow, badA, badB}

	var wantPrepared []string
	var wantErr string
	for i, jobs := range []int{1, 4, 8} {
		prepared, err := PrepareSnippetsOpt(par.WithJobs(context.Background(), jobs), input, opt.O0)
		if err == nil {
			t.Fatalf("jobs=%d: want joined error", jobs)
		}
		var ids []string
		for _, p := range prepared {
			ids = append(ids, p.Snippet.ID)
		}
		if i == 0 {
			wantPrepared, wantErr = ids, err.Error()
			// The slow snippet completes last under fan-out but must stay first.
			if len(ids) != 1 || ids[0] != "SLOW" {
				t.Fatalf("prepared = %v, want [SLOW]", ids)
			}
			// Failures joined in input order: BAD_A before BAD_B.
			ia, ib := strings.Index(wantErr, "BAD_A"), strings.Index(wantErr, "BAD_B")
			if ia < 0 || ib < 0 || ia > ib {
				t.Fatalf("joined error not in input order: %v", err)
			}
			continue
		}
		if !slices.Equal(ids, wantPrepared) {
			t.Errorf("jobs=%d: prepared %v, want %v", jobs, ids, wantPrepared)
		}
		if err.Error() != wantErr {
			t.Errorf("jobs=%d: joined error differs from sequential:\n%v\nvs\n%v", jobs, err, wantErr)
		}
	}
}

func TestPrepareSnippetsCountsOutcomes(t *testing.T) {
	o := obs.New()
	ctx := obs.With(context.Background(), o)
	bad := &Snippet{ID: "BROKEN", FuncName: "f", Source: "int f( {"}
	if _, err := PrepareSnippetsOpt(ctx, append([]*Snippet{bad}, Snippets()...), opt.O0); err == nil {
		t.Fatal("want error from broken snippet")
	}
	if got := o.Metrics.Counter("corpus.prepare.failed").Value(); got != 1 {
		t.Errorf("corpus.prepare.failed = %d, want 1", got)
	}
	if got := o.Metrics.Counter("corpus.prepare.ok").Value(); got != int64(len(Snippets())) {
		t.Errorf("corpus.prepare.ok = %d, want %d", got, len(Snippets()))
	}
}

func TestVerifyIRRejectsMalformedWithDiagnostics(t *testing.T) {
	// compile never emits malformed IR, so break a compiled object by hand
	// to exercise the rejection path: the error must identify the snippet,
	// satisfy errors.Is(err, analysis.ErrMalformed), and name the offending
	// block via the verifier diagnostics it joins.
	s, ok := SnippetByID("AEEK")
	if !ok {
		t.Fatal("AEEK snippet missing")
	}
	file, err := s.Parse()
	if err != nil {
		t.Fatal(err)
	}
	obj, err := compile.Compile(file)
	if err != nil {
		t.Fatal(err)
	}
	fn, ok := obj.Func0(s.FuncName)
	if !ok {
		t.Fatalf("missing %s", s.FuncName)
	}
	emptied := fn.Blocks[1].ID
	fn.Blocks[1].Instrs = nil

	err = verifyIR(context.Background(), s.ID, obj)
	if err == nil {
		t.Fatal("verifyIR accepted IR with an empty block")
	}
	if !errors.Is(err, analysis.ErrMalformed) {
		t.Errorf("error = %v, want analysis.ErrMalformed in the chain", err)
	}
	msg := err.Error()
	for _, want := range []string{"AEEK", "verify.empty-block", fmt.Sprintf("b%d", emptied)} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
}

func TestPrepareExposesVerifiedIR(t *testing.T) {
	s, ok := SnippetByID("TC")
	if !ok {
		t.Fatal("TC snippet missing")
	}
	p, err := PrepareOptCtx(context.Background(), s, opt.O0)
	if err != nil {
		t.Fatal(err)
	}
	if p.IR == nil || p.IR.Name != s.FuncName {
		t.Fatalf("Prepared.IR = %v, want the compiled %s", p.IR, s.FuncName)
	}
	if diags := analysis.Verify(p.IR); analysis.CountSev(diags, analysis.SevError) != 0 {
		t.Errorf("Prepared.IR not verifier-clean: %v", diags)
	}
}

package core

import (
	"context"
	"errors"
	"testing"

	"decompstudy/internal/compile"
	"decompstudy/internal/compile/opt"
	"decompstudy/internal/corpus"
	"decompstudy/internal/csrc"
	"decompstudy/internal/decomp"
	"decompstudy/internal/embed"
	"decompstudy/internal/fault"
	"decompstudy/internal/metrics"
	"decompstudy/internal/namerec"
)

// injected returns a context armed with a single always-firing error rule.
func injected(pt fault.Point, key string) context.Context {
	return fault.With(context.Background(), fault.NewInjector(&fault.Plan{
		Rules: []fault.Rule{{Point: pt, Mode: fault.ModeError, Key: key}},
	}, 0))
}

// TestErrorChainContracts pins the error taxonomy end to end: every stage
// failure wraps its stage sentinel AND the underlying cause, so errors.Is
// works from the CLIs down to the injected fault — and cancellation never
// stands in for a genuine failure.
func TestErrorChainContracts(t *testing.T) {
	snippet, ok := corpus.SnippetByID("AEEK")
	if !ok {
		t.Fatal("AEEK snippet missing")
	}
	cases := []struct {
		name  string
		run   func() error
		wants []error
	}{
		{
			name: "corpus wraps parse",
			run: func() error {
				_, err := corpus.PrepareOptCtx(injected(fault.CsrcParse, "AEEK"), snippet, opt.O0)
				return err
			},
			wants: []error{corpus.ErrPrepare, csrc.ErrParse, fault.ErrInjected},
		},
		{
			name: "corpus wraps compile",
			run: func() error {
				_, err := corpus.PrepareOptCtx(injected(fault.CompileLower, "AEEK"), snippet, opt.O0)
				return err
			},
			wants: []error{corpus.ErrPrepare, compile.ErrExec, fault.ErrInjected},
		},
		{
			name: "corpus wraps lift",
			run: func() error {
				_, err := corpus.PrepareOptCtx(injected(fault.DecompLift, "AEEK"), snippet, opt.O0)
				return err
			},
			wants: []error{corpus.ErrPrepare, decomp.ErrStructure, fault.ErrInjected},
		},
		{
			name: "corpus wraps annotate",
			run: func() error {
				_, err := corpus.PrepareOptCtx(injected(fault.NamerecAnnotate, "AEEK"), snippet, opt.O0)
				return err
			},
			wants: []error{corpus.ErrPrepare, namerec.ErrAnnotate, fault.ErrInjected},
		},
		{
			name: "metrics wraps evaluation",
			run: func() error {
				m := trainTestModel(t)
				_, err := metrics.EvaluateCtx(injected(fault.MetricsEvaluate, ""),
					[]metrics.Pair{{Candidate: "a", Reference: "b"}}, "", "", m)
				return err
			},
			wants: []error{metrics.ErrEvaluate, fault.ErrInjected},
		},
		{
			name: "pipeline wraps embed training",
			run: func() error {
				_, err := NewCtx(injected(fault.EmbedTrain, ""), nil)
				return err
			},
			wants: []error{ErrPipeline, embed.ErrTrain, fault.ErrInjected},
		},
		{
			name: "pipeline wraps recovery training",
			run: func() error {
				_, err := NewCtx(injected(fault.NamerecTrain, ""), nil)
				return err
			},
			wants: []error{ErrPipeline, namerec.ErrTrain, fault.ErrInjected},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run()
			if err == nil {
				t.Fatal("stage did not fail under injection")
			}
			for _, want := range tc.wants {
				if !errors.Is(err, want) {
					t.Errorf("errors.Is(err, %v) = false\nerr = %v", want, err)
				}
			}
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("stage failure reported as cancellation: %v", err)
			}
			var fe *fault.Error
			if !errors.As(err, &fe) {
				t.Errorf("errors.As(*fault.Error) = false for %v", err)
			}
		})
	}
}

// trainTestModel builds a minimal embedding model for the metrics contract.
func trainTestModel(t *testing.T) *embed.Model {
	t.Helper()
	m, err := embed.Train([][]string{{"alpha", "beta"}, {"beta", "gamma"}}, nil)
	if err != nil {
		t.Fatalf("training toy model: %v", err)
	}
	return m
}

// TestManifestAlwaysPresent: NewCtx ledgers a manifest even when the caller
// attached none, and a clean run leaves it empty.
func TestManifestAlwaysPresent(t *testing.T) {
	s, err := New(nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Manifest == nil {
		t.Fatal("Study.Manifest is nil")
	}
	if !s.Manifest.Empty() {
		t.Errorf("clean run has a non-empty manifest:\n%s", s.Manifest.Report())
	}
}

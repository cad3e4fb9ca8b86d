package opt_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"decompstudy/internal/analysis"
	"decompstudy/internal/compile"
	"decompstudy/internal/compile/opt"
	"decompstudy/internal/corpus"
	"decompstudy/internal/csrc"
)

// fuzzMaxSource bounds one input; larger sources only repeat the shapes
// a smaller one already exercises, at a cost that would stall the fuzzer.
const fuzzMaxSource = 4 << 10

// FuzzOptimizeObject drives arbitrary mini-C through the optimizing
// front end the server runs: parse, lower, verify, then OptimizeObject at
// -O1 and -O2 with its per-pass verifier and differential gates. Every
// input must end in a structured error or in optimized IR that verifies
// without a single diagnostic — never a panic or a hang.
//
// Run it with
//
//	go test -run NONE -fuzz FuzzOptimizeObject -fuzztime 10s ./internal/compile/opt/
func FuzzOptimizeObject(f *testing.F) {
	var types []string
	for _, s := range corpus.Snippets() {
		f.Add(s.Source)
		types = append(types, s.ExtraTypes...)
	}
	demos, err := filepath.Glob("../../../examples/lintdemo/*.c")
	if err != nil || len(demos) == 0 {
		f.Fatalf("no lintdemo seeds: %v", err)
	}
	for _, path := range demos {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}

	ctx := context.Background()
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > fuzzMaxSource {
			t.Skip()
		}
		file, err := csrc.Parse(src, types)
		if err != nil {
			return
		}
		obj, err := compile.Compile(file)
		if err != nil {
			return
		}
		if analysis.CountSev(analysis.VerifyObject(ctx, obj), analysis.SevError) > 0 {
			return
		}
		for _, level := range []opt.Level{opt.O1, opt.O2} {
			out, _, err := opt.OptimizeObject(ctx, obj, level)
			if err != nil {
				if !errors.Is(err, opt.ErrOpt) {
					t.Fatalf("%s: unstructured error: %v", level, err)
				}
				continue
			}
			if diags := analysis.VerifyObject(ctx, out); len(diags) > 0 {
				t.Fatalf("%s: optimized IR has %d diagnostics, first: %v", level, len(diags), diags[0])
			}
		}
	})
}

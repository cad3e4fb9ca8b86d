// Command decompile runs the project's compile→decompile pipeline on a
// mini-C source file, optionally applying DIRTY-style name recovery.
//
// Usage:
//
//	decompile [-annotate] [-ir] [-opt N] [-func NAME] [-types a,b,c] FILE
//	decompile -snippet AEEK [-annotate] [-ir] [-opt N]
//
// With -snippet it operates on one of the embedded study snippets instead
// of a file. -ir prints the intermediate representation instead of
// pseudo-C; -annotate applies the corpus-trained recovery model (or the
// paper-faithful overrides for snippets); -opt runs the verified
// optimizer (internal/compile/opt) at the given level first, so the
// decompiled output shows what survives -O1/-O2; -func keeps only the
// named function, and a name that matches none exits 1. The FILE path
// runs corpus.CompileSource and corpus.RenderSource, the same code as
// served's /v1/decompile, so both print the same bytes.
//
// Observability flags: -stats prints the per-stage timing tree and a
// metrics snapshot to stderr, -trace writes a Chrome trace-event JSON
// file, -v / -log-level enable structured logging, -cpuprofile /
// -memprofile write pprof profiles, and -debug-addr serves the live
// /debug HTTP surface for the duration of the run.
//
// -faults arms deterministic fault injection (see internal/fault) and
// -retry-budget bounds transient retries; with a plan armed the run
// manifest is printed to stderr after the run. The shared flags and their
// teardown come from internal/cli.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"decompstudy/internal/cli"
	"decompstudy/internal/compile/opt"
	"decompstudy/internal/corpus"
	"decompstudy/internal/modelstore"
	"decompstudy/internal/namerec"
	"decompstudy/internal/par"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("decompile", flag.ContinueOnError)
	fs.SetOutput(stderr)
	annotate := fs.Bool("annotate", false, "apply name/type recovery to the decompiled output")
	jobs := fs.Int("jobs", runtime.GOMAXPROCS(0), "worker count for pipeline fan-outs (results are identical at any value)")
	showIR := fs.Bool("ir", false, "print the intermediate representation instead of pseudo-C")
	optLevel := fs.Int("opt", 0, "optimization level (0-2) applied to the IR before decompiling")
	funcName := fs.String("func", "", "only process the named function")
	typeList := fs.String("types", "", "comma-separated extra type names for the parser")
	snippet := fs.String("snippet", "", "operate on an embedded study snippet (AEEK, BAPL, POSTORDER, TC)")
	cf := cli.Register(fs, cli.Obs|cli.Faults)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	level, err := opt.ParseLevel(*optLevel)
	if err != nil {
		fmt.Fprintf(stderr, "decompile: %v\n", err)
		return 2
	}

	ctx, finish, code := cf.Setup(stderr)
	if code != 0 {
		return code
	}
	defer func() { code = finish(code) }()
	ctx = par.WithJobs(ctx, *jobs)

	if *snippet != "" {
		return runSnippet(ctx, *snippet, level, *annotate, *showIR, stdout, stderr)
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: decompile [flags] FILE  (or -snippet ID)")
		return 2
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "decompile: %v\n", err)
		return 1
	}
	var extra []string
	if *typeList != "" {
		extra = strings.Split(*typeList, ",")
	}
	obj, err := corpus.CompileSource(ctx, string(src), extra, level)
	if err != nil {
		fmt.Fprintf(stderr, "decompile: %v\n", err)
		return 1
	}
	var model *namerec.Model
	if *annotate {
		if model, err = modelstore.From(ctx).NamerecModel(ctx, corpus.TrainingSources(), corpus.TrainingFiles); err != nil {
			fmt.Fprintf(stderr, "decompile: %v\n", err)
			return 1
		}
	}
	if err := corpus.RenderSource(ctx, stdout, obj, *funcName, *showIR, model); err != nil {
		fmt.Fprintf(stderr, "decompile: %v\n", err)
		return 1
	}
	return 0
}

func runSnippet(ctx context.Context, id string, level opt.Level, annotate, showIR bool, stdout, stderr io.Writer) int {
	s, ok := corpus.SnippetByID(strings.ToUpper(id))
	if !ok {
		fmt.Fprintf(stderr, "decompile: unknown snippet %q (want AEEK, BAPL, POSTORDER, TC)\n", id)
		return 2
	}
	p, err := corpus.PrepareOptCtx(ctx, s, level)
	if err != nil {
		fmt.Fprintf(stderr, "decompile: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, p.Render(showIR, annotate))
	return 0
}

// Command irlint compiles mini-C sources to IR and runs the
// internal/analysis verifier and lint checkers over every function,
// reporting structural errors (malformed CFGs, bad operand kinds,
// use-before-def) and readability findings (dead stores, unreachable
// code, constant conditions, unused parameters, maybe-uninitialized
// reads).
//
// Usage:
//
//	irlint [flags] FILE.c ...
//	irlint -corpus [-jobs N]
//
// -corpus lints the embedded study snippets and the training corpus
// instead of (or in addition to) the listed files. -json emits the
// findings as a JSON document; -complexity appends the per-function
// structural-complexity covariates used as RQ5 predictors. -opt N runs
// the verified optimizer (internal/compile/opt) at level N before
// linting: findings and covariates then describe the optimized IR, and
// the report carries per-check before/after finding deltas. The exit code
// is 0 when every function is clean, 1 when there are findings or a
// pipeline failure, and 2 on usage errors.
//
// Observability flags: -stats prints the per-stage timing tree and a
// metrics snapshot to stderr, -trace writes a Chrome trace-event JSON
// file, -v / -log-level enable structured logging, -cpuprofile /
// -memprofile write pprof profiles, and -debug-addr serves the live
// /debug HTTP surface for the duration of the run. -faults arms
// deterministic fault injection keyed by unit label (e.g.
// key=snippet:AEEK) and prints the run manifest to stderr afterwards.
// The shared flags and their teardown come from internal/cli.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"

	"decompstudy/internal/analysis"
	"decompstudy/internal/cli"
	"decompstudy/internal/compile"
	"decompstudy/internal/compile/opt"
	"decompstudy/internal/corpus"
	"decompstudy/internal/csrc"
	"decompstudy/internal/fault"
	"decompstudy/internal/obs"
	"decompstudy/internal/par"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// finding is one diagnostic tagged with the compilation unit it came from.
type finding struct {
	Source string `json:"source"`
	analysis.Diag
}

// funcCov is one function's complexity covariates, tagged like finding.
type funcCov struct {
	Source string `json:"source"`
	Func   string `json:"func"`
	analysis.Covariates
}

// optDelta is the per-check finding count before and after optimization.
type optDelta struct {
	Before int `json:"before"`
	After  int `json:"after"`
}

// report accumulates results across every linted unit.
type report struct {
	Findings   []finding           `json:"findings"`
	Complexity []funcCov           `json:"complexity,omitempty"`
	OptDeltas  map[string]optDelta `json:"opt_deltas,omitempty"`
}

func (rep *report) addDelta(check string, before, after int) {
	if rep.OptDeltas == nil {
		rep.OptDeltas = map[string]optDelta{}
	}
	d := rep.OptDeltas[check]
	d.Before += before
	d.After += after
	rep.OptDeltas[check] = d
}

// runner carries the per-invocation state through every linted unit.
type runner struct {
	ctx        context.Context
	rep        report
	complexity bool
	level      opt.Level
}

// lintSrc parses and compiles one mini-C translation unit, lints every
// function in it, and appends the results to rep (r.rep by default). The
// fragment indirection lets lintCorpus lint units concurrently into
// private fragments and merge them in input order.
func (r *runner) lintSrc(ctx context.Context, source, src string, types []string, rep *report) error {
	// The unit label is the fault-injection item key, so a plan can target
	// one snippet or training file of the sweep.
	ctx = fault.WithKey(ctx, source)
	file, err := csrc.ParseCtx(ctx, src, types)
	if err != nil {
		return err
	}
	obj, err := compile.CompileCtx(ctx, file)
	if err != nil {
		return err
	}
	return r.lintObject(ctx, source, obj, rep)
}

// lintObject lints every function of an already-compiled object into rep.
// At -opt 1/2 the object is optimized first: findings and complexity
// covariates describe the optimized IR, and rep records the per-check
// finding deltas (a dead store the optimizer deletes is a finding at -O0
// that is gone at -O1).
func (r *runner) lintObject(ctx context.Context, source string, obj *compile.Object, rep *report) error {
	var before map[string]int
	if r.level > opt.O0 {
		before = map[string]int{}
		for _, fn := range obj.Funcs {
			for _, d := range analysis.Check(ctx, fn) {
				before[d.Check]++
			}
		}
		oobj, _, err := opt.OptimizeObject(ctx, obj, r.level)
		if err != nil {
			return fmt.Errorf("optimizing %s at %s: %w", source, r.level, err)
		}
		obj = oobj
	}
	after := map[string]int{}
	for _, fn := range obj.Funcs {
		for _, d := range analysis.Check(ctx, fn) {
			after[d.Check]++
			rep.Findings = append(rep.Findings, finding{Source: source, Diag: d})
		}
		if r.complexity {
			rep.Complexity = append(rep.Complexity, funcCov{
				Source: source, Func: fn.Name,
				Covariates: analysis.MeasureCtx(ctx, fn),
			})
		}
	}
	if before != nil {
		for check, n := range before {
			rep.addDelta(check, n, after[check])
		}
		for check, n := range after {
			if _, ok := before[check]; !ok {
				rep.addDelta(check, 0, n)
			}
		}
	}
	return nil
}

// lintCorpus feeds the embedded study snippets and the training corpus
// through the same lint path as file arguments. Units lint concurrently on
// par.JobsFrom workers; each unit writes a private report fragment and the
// fragments merge in input order, so the output is identical at any worker
// count. Unit failures are joined in input order rather than aborting the
// sweep at the first fault.
func (r *runner) lintCorpus() error {
	type unit struct {
		lint func(ctx context.Context, rep *report) error
	}
	var units []unit
	for _, s := range corpus.Snippets() {
		units = append(units, unit{lint: func(ctx context.Context, rep *report) error {
			if err := r.lintSrc(ctx, "snippet:"+s.ID, s.Source, s.ExtraTypes, rep); err != nil {
				return fmt.Errorf("snippet %s: %w", s.ID, err)
			}
			return nil
		}})
	}
	files, err := corpus.TrainingFiles()
	if err != nil {
		return err
	}
	for i, f := range files {
		units = append(units, unit{lint: func(ctx context.Context, rep *report) error {
			obj, err := compile.CompileCtx(ctx, f)
			if err != nil {
				return fmt.Errorf("training[%d]: %w", i, err)
			}
			return r.lintObject(ctx, fmt.Sprintf("training[%d]", i), obj, rep)
		}})
	}

	jobs := par.JobsFrom(r.ctx)
	obs.SetGauge(r.ctx, "irlint.jobs", float64(jobs))
	frags, errs := par.MapAll(r.ctx, jobs, units, func(ctx context.Context, _ int, u unit) (*report, error) {
		rep := &report{}
		if err := u.lint(ctx, rep); err != nil {
			return nil, err
		}
		return rep, nil
	})
	var failed []error
	for i := range units {
		if errs[i] != nil {
			failed = append(failed, errs[i])
			continue
		}
		r.rep.Findings = append(r.rep.Findings, frags[i].Findings...)
		r.rep.Complexity = append(r.rep.Complexity, frags[i].Complexity...)
		for check, d := range frags[i].OptDeltas {
			r.rep.addDelta(check, d.Before, d.After)
		}
	}
	return errors.Join(failed...)
}

func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("irlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	useCorpus := fs.Bool("corpus", false, "lint the embedded study snippets and training corpus")
	jobs := fs.Int("jobs", runtime.GOMAXPROCS(0), "worker count for the corpus lint sweep (results are identical at any value)")
	jsonOut := fs.Bool("json", false, "emit findings as JSON instead of text")
	complexity := fs.Bool("complexity", false, "also report per-function complexity covariates")
	optLevel := fs.Int("opt", 0, "optimize the IR at this level (0-2) before linting; reports per-check finding deltas")
	typeList := fs.String("types", "", "comma-separated extra type names for the parser")
	cf := cli.Register(fs, cli.Obs|cli.Faults)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !*useCorpus && fs.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: irlint [flags] FILE.c ...  (or -corpus)")
		return 2
	}
	level, err := opt.ParseLevel(*optLevel)
	if err != nil {
		fmt.Fprintf(stderr, "irlint: %v\n", err)
		return 2
	}

	ctx, finish, code := cf.Setup(stderr)
	if code != 0 {
		return code
	}
	defer func() { code = finish(code) }()

	var extra []string
	if *typeList != "" {
		extra = strings.Split(*typeList, ",")
	}

	r := &runner{ctx: par.WithJobs(ctx, *jobs), complexity: *complexity, level: level}
	for _, path := range fs.Args() {
		src, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(stderr, "irlint: %v\n", err)
			return 1
		}
		if err := r.lintSrc(r.ctx, path, string(src), extra, &r.rep); err != nil {
			fmt.Fprintf(stderr, "irlint: %s: %v\n", path, err)
			return 1
		}
	}
	if *useCorpus {
		if err := r.lintCorpus(); err != nil {
			fmt.Fprintf(stderr, "irlint: %v\n", err)
			return 1
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(r.rep); err != nil {
			fmt.Fprintf(stderr, "irlint: %v\n", err)
			return 1
		}
	} else {
		renderText(stdout, &r.rep)
	}
	if len(r.rep.Findings) > 0 {
		return 1
	}
	return 0
}

func renderText(w io.Writer, rep *report) {
	for _, f := range rep.Findings {
		fmt.Fprintf(w, "%s: %s\n", f.Source, f.Diag.String())
	}
	if rep.Complexity != nil {
		if len(rep.Findings) > 0 {
			fmt.Fprintln(w)
		}
		for _, c := range rep.Complexity {
			fmt.Fprintf(w, "%s: %s: %s\n", c.Source, c.Func, c.Covariates.String())
		}
	}
	if len(rep.OptDeltas) > 0 {
		keys := make([]string, 0, len(rep.OptDeltas))
		for k := range rep.OptDeltas {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, len(keys))
		for i, k := range keys {
			d := rep.OptDeltas[k]
			parts[i] = fmt.Sprintf("%s %d→%d", k, d.Before, d.After)
		}
		fmt.Fprintf(w, "\nopt deltas: %s\n", strings.Join(parts, ", "))
	}
	if len(rep.Findings) == 0 && rep.Complexity == nil {
		fmt.Fprintln(w, "irlint: no findings")
	}
	if len(rep.Findings) > 0 {
		counts := map[string]int{}
		for _, f := range rep.Findings {
			counts[f.Check]++
		}
		keys := make([]string, 0, len(counts))
		for k := range counts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = fmt.Sprintf("%s×%d", k, counts[k])
		}
		fmt.Fprintf(w, "\n%d finding(s): %s\n", len(rep.Findings), strings.Join(parts, ", "))
	}
}

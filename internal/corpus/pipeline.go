package corpus

import (
	"context"
	"errors"
	"fmt"
	"io"

	"decompstudy/internal/analysis"
	"decompstudy/internal/compile"
	"decompstudy/internal/compile/opt"
	"decompstudy/internal/csrc"
	"decompstudy/internal/decomp"
	"decompstudy/internal/fault"
	"decompstudy/internal/namerec"
	"decompstudy/internal/obs"
	"decompstudy/internal/par"
)

// ErrPrepare is returned when a snippet cannot be run through the
// compile→decompile→annotate pipeline. It always wraps the stage error, so
// errors.Is also matches the underlying cause (csrc.ErrParse,
// decomp.ErrStructure, …).
var ErrPrepare = errors.New("corpus: snippet preparation failed")

// Prepared is a snippet run through the full pipeline: parsed, compiled,
// verified, decompiled, and annotated — both treatment arms ready to
// show.
type Prepared struct {
	Snippet *Snippet
	// IR is the verified intermediate representation of the study
	// function; the structural-complexity covariates (RQ5) are computed
	// from it. At OptLevel > 0 this is the optimized IR, so covariates,
	// decompiled output, and annotations all reflect the level.
	IR *compile.Func
	// OptLevel records the optimization level the snippet was prepared at.
	OptLevel opt.Level
	// HexRays is the control arm (plain decompiler output).
	HexRays *decomp.Decompiled
	// Dirty is the treatment arm (decompiler output with recovered names).
	Dirty *namerec.Annotated
	// OrigSource is the original function's pretty-printed source.
	OrigSource string
}

// PrepareOptCtx runs one snippet through compile→decompile→annotate, with
// one corpus.Prepare span per snippet and the parse/compile/lift/annotate
// stages as children. After the IR verifies, the whole object runs
// through compile/opt at the given level (verified after every pass and
// differentially executed against the unoptimized object), and
// decompilation, annotation, and covariates are computed from the
// optimized IR. opt.O0, the study default, is the identity: the object
// passes through untouched.
func PrepareOptCtx(ctx context.Context, s *Snippet, level opt.Level) (*Prepared, error) {
	// The snippet ID is the fault-injection item key for every stage this
	// snippet flows through (key-matched rules fire only on this snippet).
	ctx = fault.WithKey(ctx, s.ID)
	ctx, sp := obs.StartSpan(ctx, "corpus.Prepare",
		obs.KV("snippet", s.ID), obs.KV("opt", level.String()))
	defer sp.End()
	obs.Logger(ctx).Debug("preparing snippet", "snippet", s.ID, "func", s.FuncName, "opt", level.String())

	file, err := csrc.ParseCtx(ctx, s.Source, s.ExtraTypes)
	if err != nil {
		return nil, fmt.Errorf("%w: parsing snippet %s: %w", ErrPrepare, s.ID, err)
	}
	obj, err := compile.CompileCtx(ctx, file)
	if err != nil {
		return nil, fmt.Errorf("%w: compiling %s: %w", ErrPrepare, s.ID, err)
	}
	if err := verifyIR(ctx, s.ID, obj); err != nil {
		return nil, err
	}
	if obj, err = optimizeIR(ctx, s.ID, obj, level); err != nil {
		return nil, err
	}
	cf, ok := obj.Func0(s.FuncName)
	if !ok {
		return nil, fmt.Errorf("%w: snippet %s does not define %s", ErrPrepare, s.ID, s.FuncName)
	}
	d, err := decomp.LiftFuncCtx(ctx, cf)
	if err != nil {
		return nil, fmt.Errorf("%w: decompiling %s: %w", ErrPrepare, s.ID, err)
	}
	an := &namerec.Annotator{Opts: namerec.Options{
		Overrides:  s.DirtyOverrides,
		SwapParams: s.SwapParams,
	}}
	dirty, err := an.AnnotateCtx(ctx, d)
	if err != nil {
		return nil, fmt.Errorf("%w: annotating %s: %w", ErrPrepare, s.ID, err)
	}
	srcFn, ok := file.Function0(s.FuncName)
	if !ok {
		return nil, fmt.Errorf("%w: snippet %s lost function %s after parse", ErrPrepare, s.ID, s.FuncName)
	}
	return &Prepared{
		Snippet:    s,
		IR:         cf,
		OptLevel:   level,
		HexRays:    d,
		Dirty:      dirty,
		OrigSource: printFunc(srcFn),
	}, nil
}

// Render is the snippet's decompile output: its IR when ir is set,
// otherwise the treatment arm when annotate is set and the control arm
// when not.
func (p *Prepared) Render(ir, annotate bool) string {
	switch {
	case ir:
		return p.IR.String()
	case annotate:
		return p.Dirty.Source()
	default:
		return p.HexRays.Source()
	}
}

// ErrNoFunc is returned by RenderSource when its function filter names
// no function of the object.
var ErrNoFunc = errors.New("no function matched")

// CompileSource is the front end for arbitrary mini-C (the decompile CLI
// and served's /v1/decompile and /v1/lint): parse, lower, and run the
// whole object through compile/opt at level. opt.O0 passes the lowered
// object through untouched.
func CompileSource(ctx context.Context, src string, types []string, level opt.Level) (*compile.Object, error) {
	file, err := csrc.ParseCtx(ctx, src, types)
	if err != nil {
		return nil, err
	}
	obj, err := compile.CompileCtx(ctx, file)
	if err != nil {
		return nil, err
	}
	obj, _, err = opt.OptimizeObject(ctx, obj, level)
	return obj, err
}

// RenderSource writes the functions of a CompileSource object to w, one
// text per function followed by a newline: every function, or only the
// one named fn when fn is not empty. Each text is the function's IR when
// ir is set, otherwise its lifted pseudo-C, annotated by model when model
// is not nil. A filter that matches nothing is ErrNoFunc.
func RenderSource(ctx context.Context, w io.Writer, obj *compile.Object, fn string, ir bool, model *namerec.Model) error {
	var annotator *namerec.Annotator
	if model != nil {
		annotator = &namerec.Annotator{Model: model}
	}
	matched := false
	for _, f := range obj.Funcs {
		if fn != "" && f.Name != fn {
			continue
		}
		matched = true
		if ir {
			fmt.Fprintln(w, f.String())
			continue
		}
		d, err := decomp.LiftFuncCtx(ctx, f)
		if err != nil {
			return fmt.Errorf("%s: %w", f.Name, err)
		}
		if annotator == nil {
			fmt.Fprintln(w, d.Source())
			continue
		}
		a, err := annotator.AnnotateCtx(ctx, d)
		if err != nil {
			return fmt.Errorf("%s: %w", f.Name, err)
		}
		fmt.Fprintln(w, a.Source())
	}
	if fn != "" && !matched {
		return fmt.Errorf("%w %q", ErrNoFunc, fn)
	}
	return nil
}

// optimizeIR runs the object through compile/opt. Failures — an
// unverifiable pass output or a differential disagreement — exclude the
// snippet exactly like any other pipeline stage fault, with the
// structured diagnostics riding the error.
func optimizeIR(ctx context.Context, id string, obj *compile.Object, level opt.Level) (*compile.Object, error) {
	out, _, err := opt.OptimizeObject(ctx, obj, level)
	if err != nil {
		obs.AddCount(ctx, "corpus.opt.rejected", 1)
		return nil, fmt.Errorf("%w: optimizing %s at %s: %w", ErrPrepare, id, level, err)
	}
	return out, nil
}

// verifyIR rejects malformed compiled IR with structured diagnostics
// naming the offending block/instruction instead of letting
// decomp.LiftFunc fail opaquely; the diagnostics ride the per-snippet
// error that PrepareSnippetsOpt joins, and errors.Is(err,
// analysis.ErrMalformed) identifies the rejection.
func verifyIR(ctx context.Context, id string, obj *compile.Object) error {
	if verr := analysis.AsError(analysis.VerifyObject(ctx, obj), analysis.SevError); verr != nil {
		obs.AddCount(ctx, "corpus.verify.rejected", 1)
		return fmt.Errorf("%w: verifying IR of %s: %w", ErrPrepare, id, verr)
	}
	return nil
}

// PrepareSnippetsOpt prepares the given snippets at an optimization
// level, continuing past per-snippet failures. On error it returns the
// successfully prepared snippets together with every failure joined via
// errors.Join, so telemetry can report partial pipeline outcomes instead
// of only the first fault.
//
// Snippets fan out across the context's worker count (par.JobsFrom).
// Successes and failures are both assembled in input order regardless of
// completion order, so the returned slice and the joined error message are
// identical at any worker count.
func PrepareSnippetsOpt(ctx context.Context, snippets []*Snippet, level opt.Level) ([]*Prepared, error) {
	jobs := par.JobsFrom(ctx)
	ctx, sp := obs.StartSpan(ctx, "corpus.PrepareAll",
		obs.KV("snippets", len(snippets)), obs.KV("jobs", jobs), obs.KV("opt", level.String()))
	defer sp.End()
	obs.SetGauge(ctx, "corpus.prepare.jobs", float64(jobs))

	prepared, errs := par.MapAll(ctx, jobs, snippets, func(ctx context.Context, _ int, s *Snippet) (*Prepared, error) {
		p, err := PrepareOptCtx(ctx, s, level)
		if err != nil {
			obs.AddCount(ctx, "corpus.prepare.failed", 1)
			obs.Logger(ctx).Error("snippet preparation failed", "snippet", s.ID, "err", err)
			return nil, err
		}
		obs.AddCount(ctx, "corpus.prepare.ok", 1)
		return p, nil
	})

	out := make([]*Prepared, 0, len(snippets))
	var failed []error
	for i := range snippets {
		if errs[i] != nil {
			failed = append(failed, errs[i])
			// Cancellation fallout is the run dying, not this snippet being
			// bad — only genuine failures become manifest exclusions.
			if !errors.Is(errs[i], context.Canceled) && !errors.Is(errs[i], context.DeadlineExceeded) {
				fault.Exclude(ctx, "corpus", snippets[i].ID, errs[i])
			}
			continue
		}
		out = append(out, prepared[i])
	}
	if len(failed) > 0 {
		sp.SetAttr("failed", len(failed))
		return out, errors.Join(failed...)
	}
	return out, nil
}

func printFunc(fn *csrc.Function) string {
	return csrc.PrintFunction(fn, nil)
}

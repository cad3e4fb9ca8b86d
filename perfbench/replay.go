package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"

	"decompstudy/internal/analysis"
	"decompstudy/internal/compile"
	"decompstudy/internal/compile/opt"
	"decompstudy/internal/corpus"
	"decompstudy/internal/csrc"
	"decompstudy/internal/decomp"
	"decompstudy/internal/embed"
	"decompstudy/internal/metrics"
	"decompstudy/internal/namerec"
	"decompstudy/internal/par"
	"decompstudy/internal/serve"
)

// This file computes, in-process through the library, what served answers
// for each request: untraced before timing starts, as the oracle every
// response is compared against, and traced after the timed phases, as the
// replay the per-layer metrics come from. Each helper wraps one call into
// a layer's public function in a span and records that layer's counts;
// with a nil recorder the spans and counts are no-ops.

// prepare calls corpus.PrepareOptCtx under a corpus.prepare span and, when
// tracing, replays the stages it runs (parse, lower, verify, optimize,
// lift, annotate) under that span.
func (t tracer) prepare(ctx context.Context, parent int, sn *corpus.Snippet, level opt.Level) (*corpus.Prepared, error) {
	var p *corpus.Prepared
	var err error
	id, _ := t.span(parent, "corpus.prepare", func() { p, err = corpus.PrepareOptCtx(ctx, sn, level) })
	if err != nil || t.rec == nil {
		return p, err
	}
	file, err := t.parse(ctx, id, sn.Source, sn.ExtraTypes)
	if err != nil {
		return nil, err
	}
	obj, err := t.lower(ctx, id, file)
	if err != nil {
		return nil, err
	}
	t.rec.Add("analysis.diags", float64(len(t.verify(ctx, id, obj))))
	if obj, err = t.optimize(ctx, id, obj, level); err != nil {
		return nil, err
	}
	cf, ok := obj.Func0(sn.FuncName)
	if !ok {
		return nil, fmt.Errorf("replay: %s lost %s", sn.ID, sn.FuncName)
	}
	d, err := t.lift(ctx, id, cf)
	if err != nil {
		return nil, err
	}
	an := &namerec.Annotator{Opts: namerec.Options{Overrides: sn.DirtyOverrides, SwapParams: sn.SwapParams}}
	if _, err := t.annotate(ctx, id, an, d); err != nil {
		return nil, err
	}
	return p, nil
}

func (t tracer) parse(ctx context.Context, parent int, src string, types []string) (*csrc.File, error) {
	var f *csrc.File
	var err error
	t.span(parent, "csrc.parse", func() { f, err = csrc.ParseCtx(ctx, src, types) })
	t.rec.Add("csrc.parse.bytes", float64(len(src)))
	return f, err
}

func (t tracer) lower(ctx context.Context, parent int, f *csrc.File) (*compile.Object, error) {
	var obj *compile.Object
	var err error
	t.span(parent, "compile.lower", func() { obj, err = compile.CompileCtx(ctx, f) })
	if err == nil {
		t.rec.Add("compile.lower.instrs", float64(objInstrs(obj)))
	}
	return obj, err
}

func (t tracer) verify(ctx context.Context, parent int, obj *compile.Object) []analysis.Diag {
	var diags []analysis.Diag
	t.span(parent, "analysis.verify", func() { diags = analysis.VerifyObject(ctx, obj) })
	return diags
}

func (t tracer) optimize(ctx context.Context, parent int, obj *compile.Object, level opt.Level) (*compile.Object, error) {
	var out *compile.Object
	var st *opt.Stats
	var err error
	t.span(parent, "opt", func() { out, st, err = opt.OptimizeObject(ctx, obj, level) })
	if err != nil {
		return nil, err
	}
	in, after := objInstrs(obj), objInstrs(out)
	if st != nil && st.Funcs > 0 {
		in, after = st.InstrsBefore, st.InstrsAfter
	}
	t.rec.Add("opt.instrs_in", float64(in))
	t.rec.Add("opt.instrs_out", float64(after))
	return out, nil
}

func (t tracer) lift(ctx context.Context, parent int, fn *compile.Func) (*decomp.Decompiled, error) {
	var d *decomp.Decompiled
	var err error
	_, dur := t.span(parent, "decomp.lift", func() { d, err = decomp.LiftFuncCtx(ctx, fn) })
	t.rec.Add("decomp.lift.blocks", float64(len(fn.Blocks)))
	t.rec.Max(t.op, "decomp.lift.ms_max", durMs(dur))
	return d, err
}

func (t tracer) annotate(ctx context.Context, parent int, an *namerec.Annotator, d *decomp.Decompiled) (*namerec.Annotated, error) {
	var a *namerec.Annotated
	var err error
	t.span(parent, "namerec.annotate", func() { a, err = an.AnnotateCtx(ctx, d) })
	if err == nil {
		t.rec.Add("namerec.annotate.symbols", float64(len(a.Renames)))
	}
	return a, err
}

func objInstrs(obj *compile.Object) int {
	n := 0
	for _, fn := range obj.Funcs {
		for _, b := range fn.Blocks {
			n += len(b.Instrs)
		}
	}
	return n
}

// lib holds the warm models served holds: trained the same way, from the
// same corpus, so the library's answers are the server's answers.
type lib struct {
	em *embed.Model
	rm *namerec.Model
	// alts are further recovery models trained from the same corpus, each
	// with its own training order; see ambiguous.
	alts []*namerec.Model
	// settle makes compute refuse (errAmbiguous) to annotate a function
	// whose recovered names depend on tie-breaking; see ambiguous.
	settle bool
}

// errAmbiguous reports a decompile request whose annotation is not
// determined by its input.
var errAmbiguous = errors.New("annotation depends on training order")

// ambiguous reports whether d's annotation depends on training order.
// Model.Predict keeps the first best training example, and training walks
// a map, so on a tie the answer differs between processes that trained
// the model separately: the library's answer cannot predict served's.
// A tie shows as two different best predictions of equal confidence, or
// as models trained in different orders annotating d differently. Such
// requests are sent without annotation instead.
func (l *lib) ambiguous(d *decomp.Decompiled) bool {
	feats := namerec.ExtractFeatures(d.Pseudo)
	for _, nm := range d.NameMap {
		top := l.rm.PredictAll(feats[nm.NewName], 2)
		if len(top) == 2 && top[0].Confidence == top[1].Confidence {
			return true
		}
	}
	want, err := (&namerec.Annotator{Model: l.rm}).Annotate(d)
	if err != nil {
		return true
	}
	for _, m := range l.alts {
		got, err := (&namerec.Annotator{Model: m}).Annotate(d)
		if err != nil || got.Source() != want.Source() {
			return true
		}
	}
	return false
}

// request is one generated request: its wire body and the decoded fields
// the library computation needs.
type request struct {
	endpoint string // annotate | metrics | decompile | lint
	body     []byte
	snippet  *corpus.Snippet // nil for a source request
	source   string
	level    opt.Level
	annotate bool // decompile: apply name recovery
	nested   bool
	depth    int
	// want indexes the expected response body.
	want int
}

// compute returns the response body served must send for rq, with the
// library calls made as the handler makes them.
func (l *lib) compute(ctx context.Context, t tracer, parent int, rq *request) ([]byte, error) {
	ctx = par.WithJobs(ctx, 1)
	switch rq.endpoint {
	case "annotate":
		p, err := t.prepare(ctx, parent, rq.snippet, rq.level)
		if err != nil {
			return nil, err
		}
		resp := &serve.AnnotateResponse{
			Snippet: p.Snippet.ID, Opt: p.OptLevel.String(), Output: p.Dirty.Source(),
			Renames: make([]serve.RenameJSON, 0, len(p.Dirty.Renames)),
		}
		for _, rn := range p.Dirty.Renames {
			resp.Renames = append(resp.Renames, serve.RenameJSON{
				OrigName: rn.OrigName, OrigType: rn.OrigType,
				NewName: rn.NewName, NewType: rn.NewType, Confidence: rn.Confidence,
			})
		}
		return encodeJSON(resp)
	case "metrics":
		p, err := t.prepare(ctx, parent, rq.snippet, rq.level)
		if err != nil {
			return nil, err
		}
		pairs := make([]metrics.Pair, 0, len(p.Dirty.Renames))
		for _, rn := range p.Dirty.Renames {
			pairs = append(pairs, metrics.Pair{Candidate: rn.NewName, Reference: rn.OrigName})
		}
		t.rec.Add("metrics.pairs", float64(len(pairs)))
		var rep metrics.Report
		t.span(parent, "metrics.evaluate", func() {
			rep, err = metrics.EvaluateCtx(ctx, pairs, p.Dirty.Source(), p.OrigSource, l.em)
		})
		if err != nil {
			return nil, err
		}
		var cov analysis.Covariates
		t.span(parent, "analysis.measure", func() { cov = analysis.MeasureCtx(ctx, p.IR) })
		return encodeJSON(&serve.MetricsResponse{
			Snippet: p.Snippet.ID, Opt: p.OptLevel.String(), Pairs: len(pairs),
			Report: serve.MetricsReport{
				ExactMatch: rep.ExactMatch, Levenshtein: rep.Levenshtein, NormalizedLev: rep.NormalizedLev,
				Jaccard: rep.Jaccard, BLEU: rep.BLEU, CodeBLEU: rep.CodeBLEU,
				BERTScoreF1: rep.BERTScoreF1, VarCLR: rep.VarCLR,
			},
			Covariates: cov,
		})
	case "decompile":
		if rq.snippet != nil {
			p, err := t.prepare(ctx, parent, rq.snippet, rq.level)
			if err != nil {
				return nil, err
			}
			return encodeJSON(&serve.DecompileResponse{Output: p.HexRays.Source()})
		}
		obj, err := t.frontEnd(ctx, parent, rq.source, nil, rq.level)
		if err != nil {
			return nil, err
		}
		an := &namerec.Annotator{Model: l.rm}
		var sb strings.Builder
		for _, fn := range obj.Funcs {
			d, err := t.lift(ctx, parent, fn)
			if err != nil {
				return nil, err
			}
			if !rq.annotate {
				fmt.Fprintln(&sb, d.Source())
				continue
			}
			if l.settle && l.ambiguous(d) {
				return nil, errAmbiguous
			}
			a, err := t.annotate(ctx, parent, an, d)
			if err != nil {
				return nil, err
			}
			fmt.Fprintln(&sb, a.Source())
		}
		return encodeJSON(&serve.DecompileResponse{Output: sb.String()})
	case "lint":
		src, types := rq.source, []string(nil)
		if rq.snippet != nil {
			src, types = rq.snippet.Source, rq.snippet.ExtraTypes
		}
		obj, err := t.frontEnd(ctx, parent, src, types, rq.level)
		if err != nil {
			return nil, err
		}
		var diags []analysis.Diag
		id, _ := t.span(parent, "analysis.check", func() { diags = analysis.CheckObject(ctx, obj) })
		if t.rec != nil {
			t.verify(ctx, id, obj)
			t.span(id, "analysis.lint", func() { _ = analysis.LintObject(ctx, obj) })
		}
		t.rec.Add("analysis.diags", float64(len(diags)))
		if diags == nil {
			diags = []analysis.Diag{}
		}
		var cov map[string]analysis.Covariates
		t.span(parent, "analysis.measure", func() { cov = analysis.MeasureObject(ctx, obj) })
		return encodeJSON(&serve.LintResponse{Diags: diags, Covariates: cov})
	}
	return nil, fmt.Errorf("unknown endpoint %q", rq.endpoint)
}

// frontEnd is parse → lower → optimize, as the decompile and lint
// handlers run it.
func (t tracer) frontEnd(ctx context.Context, parent int, src string, types []string, level opt.Level) (*compile.Object, error) {
	f, err := t.parse(ctx, parent, src, types)
	if err != nil {
		return nil, err
	}
	obj, err := t.lower(ctx, parent, f)
	if err != nil {
		return nil, err
	}
	return t.optimize(ctx, parent, obj, level)
}

// encodeJSON encodes v exactly as served writes a response body.
func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// pipelineLayerMetrics reduces the compile/decompile pipeline's spans and
// counts to per-layer metrics, per operation (totals over n operations).
func pipelineLayerMetrics(rec *Recorder, spans []Span, n float64, m map[string]float64) {
	total, self := LayerTimes(spans)
	per := func(d time.Duration) float64 { return durMs(d) / n }
	for _, name := range []string{
		"corpus.prepare", "csrc.parse", "compile.lower", "opt", "analysis.verify",
		"analysis.lint", "analysis.measure", "decomp.lift", "namerec.annotate", "metrics.evaluate",
	} {
		m[name+".ms"] = per(total[name])
	}
	m["corpus.prepare.self_ms"] = per(self["corpus.prepare"])
	for _, name := range []string{
		"csrc.parse.bytes", "compile.lower.instrs", "opt.instrs_in", "opt.instrs_out",
		"analysis.diags", "decomp.lift.blocks", "namerec.annotate.symbols", "metrics.pairs",
	} {
		m[name] = rec.Count(name) / n
	}
	if b := rec.Count("csrc.parse.bytes"); b > 0 {
		m["csrc.parse.ns_per_byte"] = float64(total["csrc.parse"]) / b
	}
	m["decomp.lift.ms_max"], _ = rec.MaxOf("decomp.lift.ms_max")
}

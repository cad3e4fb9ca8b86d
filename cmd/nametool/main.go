// Command nametool computes the paper's intrinsic similarity metrics for
// name pairs or for an embedded study snippet's full renaming.
//
// Usage:
//
//	nametool [flags] pair CANDIDATE REFERENCE     # metrics for one name pair
//	nametool [flags] snippet ID                   # full metric report for a snippet
//	nametool [flags] nearest NAME [K]             # nearest embedding neighbors
//
// -opt N runs the verified optimizer (internal/compile/opt) at the given
// level before extracting a snippet's renamings, so the report covers
// only the names that survive -O1/-O2.
//
// Observability flags: -stats prints the per-stage timing tree and a
// metrics snapshot to stderr, -trace writes a Chrome trace-event JSON
// file, -v / -log-level enable structured logging, -cpuprofile /
// -memprofile write pprof profiles, and -debug-addr serves the live
// /debug HTTP surface for the duration of the run.
//
// -model-cache DIR persists the embedding model to a content-addressed
// on-disk store so repeated runs skip training; -no-model-cache trains
// fresh every run. Output is identical either way. The shared flags and
// their teardown come from internal/cli.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"decompstudy/internal/cli"
	"decompstudy/internal/compile/opt"
	"decompstudy/internal/corpus"
	"decompstudy/internal/embed"
	"decompstudy/internal/metrics"
	"decompstudy/internal/modelstore"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("nametool", flag.ContinueOnError)
	fs.SetOutput(stderr)
	optLevel := fs.Int("opt", 0, "optimization level (0-2) applied to the snippet IR before extracting renamings")
	cf := cli.Register(fs, cli.Obs|cli.ModelCache)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	level, err := opt.ParseLevel(*optLevel)
	if err != nil {
		fmt.Fprintf(stderr, "nametool: %v\n", err)
		return 2
	}
	rest := fs.Args()
	if len(rest) < 1 {
		usage(stderr)
		return 2
	}

	ctx, finish, code := cf.Setup(stderr)
	if code != 0 {
		return code
	}
	defer func() { code = finish(code) }()

	ctxs, err := corpus.EmbeddingContexts()
	if err != nil {
		fmt.Fprintf(stderr, "nametool: %v\n", err)
		return 1
	}
	model, err := modelstore.From(ctx).EmbedModel(ctx, ctxs, &embed.Config{Dim: 24})
	if err != nil {
		fmt.Fprintf(stderr, "nametool: %v\n", err)
		return 1
	}
	switch rest[0] {
	case "pair":
		if len(rest) != 3 {
			usage(stderr)
			return 2
		}
		return pair(rest[1], rest[2], model, stdout)
	case "snippet":
		if len(rest) != 2 {
			usage(stderr)
			return 2
		}
		return snippet(ctx, rest[1], level, model, stdout, stderr)
	case "nearest":
		if len(rest) < 2 {
			usage(stderr)
			return 2
		}
		k := 8
		if len(rest) > 2 {
			if n, err := strconv.Atoi(rest[2]); err == nil {
				k = n
			}
		}
		return nearest(rest[1], k, model, stdout, stderr)
	default:
		usage(stderr)
		return 2
	}
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage:
  nametool [flags] pair CANDIDATE REFERENCE
  nametool [flags] snippet AEEK|BAPL|POSTORDER|TC
  nametool [flags] nearest NAME [K]`)
}

func pair(cand, ref string, model *embed.Model, stdout io.Writer) int {
	fmt.Fprintf(stdout, "candidate: %q   reference: %q\n\n", cand, ref)
	fmt.Fprintf(stdout, "  exact match:            %.0f\n", metrics.ExactMatch(cand, ref))
	fmt.Fprintf(stdout, "  Levenshtein distance:   %d\n", metrics.Levenshtein(cand, ref))
	fmt.Fprintf(stdout, "  normalized Levenshtein: %.4f\n", metrics.NormalizedLevenshtein(cand, ref))
	fmt.Fprintf(stdout, "  Jaccard (char bigrams): %.4f\n", metrics.JaccardNGrams(cand, ref, 2))
	fmt.Fprintf(stdout, "  token Jaccard:          %.4f\n", metrics.TokenJaccard(cand, ref))
	bleu := metrics.BLEU(metrics.TokenizeNames(cand), metrics.TokenizeNames(ref), 4)
	fmt.Fprintf(stdout, "  BLEU (subtokens):       %.4f\n", bleu)
	if v, err := metrics.VarCLR(cand, ref, model); err == nil {
		fmt.Fprintf(stdout, "  VarCLR (embedding):     %.4f\n", v)
	}
	if b, err := metrics.BERTScoreF1(metrics.TokenizeNames(cand), metrics.TokenizeNames(ref), model); err == nil {
		fmt.Fprintf(stdout, "  BERTScore F1:           %.4f\n", b)
	}
	return 0
}

func snippet(ctx context.Context, id string, level opt.Level, model *embed.Model, stdout, stderr io.Writer) int {
	s, ok := corpus.SnippetByID(strings.ToUpper(id))
	if !ok {
		fmt.Fprintf(stderr, "nametool: unknown snippet %q\n", id)
		return 2
	}
	p, err := corpus.PrepareOptCtx(ctx, s, level)
	if err != nil {
		fmt.Fprintf(stderr, "nametool: %v\n", err)
		return 1
	}
	var pairs []metrics.Pair
	fmt.Fprintf(stdout, "%s (%s) renamings:\n", s.ID, s.FuncName)
	for _, r := range p.Dirty.Renames {
		fmt.Fprintf(stdout, "  %-10s -> %-10s (orig type %-18s -> %s)\n", r.OrigName, r.NewName, r.OrigType, r.NewType)
		pairs = append(pairs, metrics.Pair{Candidate: r.NewName, Reference: r.OrigName})
	}
	rep, err := metrics.EvaluateCtx(ctx, pairs, p.Dirty.Source(), p.OrigSource, model)
	if err != nil {
		fmt.Fprintf(stderr, "nametool: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "\n  exact match:   %.3f\n  Levenshtein:   %.2f (mean)\n  Jaccard:       %.3f\n  BLEU:          %.3f\n  codeBLEU:      %.3f\n  BERTScore F1:  %.3f\n  VarCLR:        %.3f\n",
		rep.ExactMatch, rep.Levenshtein, rep.Jaccard, rep.BLEU, rep.CodeBLEU, rep.BERTScoreF1, rep.VarCLR)
	return 0
}

func nearest(name string, k int, model *embed.Model, stdout, stderr io.Writer) int {
	near, err := model.Nearest(name, k)
	if err != nil {
		fmt.Fprintf(stderr, "nametool: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "nearest subtokens to %q: %s\n", name, strings.Join(near, ", "))
	return 0
}

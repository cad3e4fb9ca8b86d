// Command perfbench is the repository benchmark: it runs one seeded
// workload against the real program for a fixed time, checks every output,
// and prints the end-to-end metrics (or, with -trace 1, the per-layer
// metrics) as the last line of standard output.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench -workload study|serve_snippets|serve_sources -seed N
//	          -seconds S -trace 0|1 -served PATH [-out DIR]
//
// The study workload drives experiments/core in-process, exactly as
// studysim does. The serve workloads start the served binary as a child
// process on loopback and load it from this process. The line before the
// result is a JSON report with provenance (host, toolchain, commit, seed)
// and the sample count and percentile behind every latency figure.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names a metric and its unit; the lists below must match
// BENCHMARK.json (bench_json_test.go checks).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"lat_p50_ms", "ms"},
	{"lat_tail_ms", "ms"},
	{"capacity_rps", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MiB"},
}

var perLayer = []metricDef{
	{"mixed.glmm.ms", "ms"},
	{"mixed.lmm.ms", "ms"},
	{"mixed.fits", "count"},
	{"mixed.converged_share", "ratio"},
	{"core.new.ms", "ms"},
	{"core.new.self_ms", "ms"},
	{"core.correlations.ms", "ms"},
	{"core.analyses.ms", "ms"},
	{"experiments.render.self_ms", "ms"},
	{"experiments.critical_path_ms", "ms"},
	{"embed.train.ms", "ms"},
	{"embed.cache.hit_rate", "ratio"},
	{"namerec.train.ms", "ms"},
	{"namerec.annotate.ms", "ms"},
	{"namerec.annotate.symbols", "count"},
	{"survey.run.ms", "ms"},
	{"survey.participants", "count"},
	{"survey.excluded", "count"},
	{"metrics.evaluate.ms", "ms"},
	{"metrics.pairs", "count"},
	{"qualcode.panel.ms", "ms"},
	{"corpus.prepare.ms", "ms"},
	{"corpus.prepare.self_ms", "ms"},
	{"csrc.parse.ms", "ms"},
	{"csrc.parse.bytes", "bytes"},
	{"csrc.parse.ns_per_byte", "ns/byte"},
	{"compile.lower.ms", "ms"},
	{"compile.lower.instrs", "count"},
	{"opt.ms", "ms"},
	{"opt.instrs_in", "count"},
	{"opt.instrs_out", "count"},
	{"analysis.verify.ms", "ms"},
	{"analysis.lint.ms", "ms"},
	{"analysis.measure.ms", "ms"},
	{"analysis.diags", "count"},
	{"decomp.lift.ms", "ms"},
	{"decomp.lift.blocks", "count"},
	{"decomp.lift.ms_max", "ms"},
	{"modelstore.warm_ms", "ms"},
	{"modelstore.hit_rate", "ratio"},
	{"serve.overhead_ms", "ms"},
	{"serve.max_rate_rps", "1/s"},
	{"serve.batch.size_mean", "count"},
	{"serve.batch.coalesced_share", "ratio"},
	{"serve.batch.timer_flush_share", "ratio"},
	{"serve.admission.queued", "count"},
	{"serve.admission.rejected", "count"},
	{"gen.late_ms_p99", "ms"},
	{"gen.cpu_share", "ratio"},
	{"trace.overhead_pct", "%"},
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	served   string // path to the served binary
	out      string // directory for span dumps
	jobs     int
}

// outcome is what a workload returns: the contract's counts, its metric
// values by name, and workload details for the report line.
type outcome struct {
	attempted, failed int64
	correct           bool
	metrics           map[string]float64
	report            map[string]any
	rec               *Recorder
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

var workloads = map[string]func(context.Context, config) (*outcome, error){
	"study":          runStudy,
	"serve_snippets": func(ctx context.Context, c config) (*outcome, error) { return runServe(ctx, c, snippetsMix) },
	"serve_sources":  func(ctx context.Context, c config) (*outcome, error) { return runServe(ctx, c, sourcesMix) },
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	var secs, trace int
	var commit string
	fs.StringVar(&c.workload, "workload", "", "workload: study, serve_snippets or serve_sources")
	fs.Int64Var(&c.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.IntVar(&secs, "seconds", 10, "how long the run measures")
	fs.IntVar(&trace, "trace", 0, "1 = traced run printing per-layer metrics")
	fs.StringVar(&c.served, "served", "", "path to the served binary (serve workloads)")
	fs.StringVar(&c.out, "out", ".bench_build", "directory the span dump of a traced run is written under")
	fs.StringVar(&commit, "commit", "unknown", "source commit, for the report")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[c.workload]
	if !ok || secs < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (study, serve_snippets, serve_sources), -seconds >= 1, -trace 0|1\n")
		return 2
	}
	c.seconds = time.Duration(secs) * time.Second
	c.trace = trace == 1
	c.jobs = runtime.NumCPU()

	start := time.Now()
	o, err := wl(context.Background(), c)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", c.workload, err)
		return 1
	}
	if o.rec != nil {
		path := filepath.Join(c.out, "trace", fmt.Sprintf("%s-seed%d.json", c.workload, c.seed))
		if err := o.rec.WriteFile(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		o.report["span_file"] = path
	}

	defs := endToEnd
	if c.trace {
		defs = perLayer
	}
	res := resultJSON{Correct: o.correct, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricJSON{}}
	for _, d := range defs {
		v := o.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "perfbench: %s is %v; reporting 0\n", d.name, v)
			v = 0
		}
		res.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	o.report["provenance"] = provenance(c, commit)
	o.report["wall_s"] = time.Since(start).Seconds()
	o.report["fail_share"] = float64(o.failed) / float64(max(o.attempted, 1))
	rep, err := json.Marshal(map[string]any{"report": o.report})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: report: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", rep, line)
	return 0
}

// provenance records what a result was measured on.
func provenance(c config, commit string) map[string]any {
	return map[string]any{
		"workload":      c.workload,
		"seed":          c.seed,
		"seconds":       c.seconds.Seconds(),
		"trace":         c.trace,
		"num_cpu":       runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"goos_goarch":   runtime.GOOS + "/" + runtime.GOARCH,
		"git_commit":    commit,
		"source_sha256": sourceDigest("."),
	}
}

// sourceDigest hashes the repository's Go sources and module files under
// root (build output excluded), identifying the code measured when no git
// metadata is available.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(raw))
		h.Write(raw)
	}
	return hex.EncodeToString(h.Sum(nil))
}

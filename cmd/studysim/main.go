// Command studysim runs the full study simulation and regenerates the
// paper's tables and figures.
//
// Usage:
//
//	studysim [-seed N] [-jobs N] [-opt N] [-artifact NAME] [-csv]
//	studysim -stats -trace trace.json [-v] [-cpuprofile cpu.out]
//
// With no flags it prints every table and figure in paper order using the
// shipped seed. -artifact selects a single artifact (table1, table2,
// table3, table4, fig1..fig8, intext, metrics, complexity, ablations,
// confound, optlevels, telemetry); -csv dumps the anonymized response
// dataset instead. -opt prepares the snippets at an optimization level
// (0-2); the default 0 keeps every artifact byte-identical with earlier
// releases, and the optlevels artifact sweeps all three levels.
//
// Observability flags: -stats prints the per-stage timing tree and a
// metrics snapshot to stderr after the run, -trace writes a Chrome
// trace-event JSON file (load it at chrome://tracing or ui.perfetto.dev),
// -v / -log-level enable structured logging, and -cpuprofile/-memprofile
// write pprof profiles. -debug-addr serves the live /debug HTTP surface
// (Prometheus metrics, span ring, stage aggregates, pprof) for the
// duration of the run, with runtime gauges refreshed every -debug-sample.
//
// Robustness flags: -faults arms deterministic fault injection from a plan
// spec (see internal/fault), -retry-budget bounds transient-fault retries.
// When injection is armed (or anything was excluded) the run manifest —
// exclusions and retry counts — is printed to stderr after the run.
//
// -no-model-cache disables the in-process model store, so every training
// runs fresh. It is output-invariant: artifacts are byte-identical either
// way, and at any -jobs value.
//
// The shared flags and their teardown come from internal/cli.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"decompstudy/internal/cli"
	"decompstudy/internal/core"
	"decompstudy/internal/experiments"
	"decompstudy/internal/par"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("studysim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 0, "simulation seed (0 = shipped default)")
	jobs := fs.Int("jobs", runtime.GOMAXPROCS(0), "worker count for pipeline fan-outs (results are identical at any value)")
	artifact := fs.String("artifact", "", "single artifact to render ("+experiments.ArtifactNames()+")")
	csv := fs.Bool("csv", false, "dump the anonymized response dataset as CSV")
	optLevel := fs.Int("opt", 0, "optimization level snippets are prepared at (0, 1, or 2; 0 keeps output byte-identical)")
	export := fs.String("export", "", "write the replication package (CSV + JSON) to this directory")
	cf := cli.Register(fs, cli.Obs|cli.Faults|cli.ModelCache)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// Validate -artifact before the (expensive) pipeline runs so typos fail
	// fast with the full menu.
	name := strings.ToLower(*artifact)
	var entry experiments.Artifact
	if name != "" {
		var ok bool
		entry, ok = experiments.LookupArtifact(name)
		if !ok {
			fmt.Fprintf(stderr, "studysim: unknown artifact %q\nvalid artifacts: %s\n", *artifact, experiments.ArtifactNames())
			return 2
		}
	}

	// -artifact telemetry renders the trace and metrics, so it needs them
	// even without -stats/-trace.
	cf.Collect = name == "telemetry"
	ctx, finish, code := cf.Setup(stderr)
	if code != 0 {
		return code
	}
	defer func() { code = finish(code) }()
	ctx = par.WithJobs(ctx, *jobs)

	r, err := experiments.NewRunnerCtx(ctx, &core.Config{Seed: *seed, Jobs: *jobs, OptLevel: *optLevel})
	if err != nil {
		fmt.Fprintf(stderr, "studysim: %v\n", err)
		return 1
	}
	if *csv {
		fmt.Fprint(stdout, r.Study.Dataset.CSV())
		return 0
	}
	if *export != "" {
		if err := r.Study.Dataset.WriteReplicationPackage(*export); err != nil {
			fmt.Fprintf(stderr, "studysim: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "replication package written to %s\n", *export)
		return 0
	}

	var out string
	if name == "" {
		out, err = r.All()
	} else {
		out, err = entry.Render(r, *seed)
	}
	if err != nil {
		fmt.Fprintf(stderr, "studysim: %v\n", err)
		return 1
	}
	fmt.Fprint(stdout, out)
	return 0
}

// Package cli is the runtime every command shares: one flag set for
// telemetry, profiling, fault injection and the model store, and one
// Setup that validates all of it before anything starts and returns the
// run's context plus a finish func with a fixed teardown.
//
// Usage in a command's run function:
//
//	cf := cli.Register(fs, cli.Obs|cli.Faults)
//	if err := fs.Parse(args); err != nil {
//		return 2
//	}
//	ctx, finish, code := cf.Setup(stderr)
//	if code != 0 {
//		return code
//	}
//	defer func() { code = finish(code) }()
package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"time"

	"decompstudy/internal/fault"
	"decompstudy/internal/modelstore"
	"decompstudy/internal/obs"
)

// Group selects which shared flags a command registers.
type Group uint8

const (
	// Log registers -v and -log-level.
	Log Group = 1 << iota
	// Obs registers Log plus -trace, -stats, -cpuprofile, -memprofile,
	// -debug-addr and -debug-sample.
	Obs
	// Faults registers -faults and -retry-budget.
	Faults
	// ModelCache registers -no-model-cache.
	ModelCache
)

// Flags holds the shared flag values of one command.
type Flags struct {
	prog string

	verbose, stats, noModelCache                               bool
	logLevel, trace, cpuProfile, memProfile, debugAddr, faults string
	debugSample                                                time.Duration
	retryBudget                                                int

	// Collect forces a trace collector and metrics registry even when no
	// flag asks for one (studysim's telemetry artifact renders them).
	Collect bool
}

// Register adds the selected flag groups to fs. The flag set's name
// prefixes every message Setup and finish print.
func Register(fs *flag.FlagSet, groups Group) *Flags {
	f := &Flags{prog: fs.Name()}
	if groups&(Log|Obs) != 0 {
		fs.BoolVar(&f.verbose, "v", false, "enable debug logging (shorthand for -log-level debug)")
		fs.StringVar(&f.logLevel, "log-level", "", "structured log level: debug, info, warn, error")
	}
	if groups&Obs != 0 {
		fs.StringVar(&f.trace, "trace", "", "write a Chrome trace-event JSON file of the pipeline spans")
		fs.BoolVar(&f.stats, "stats", false, "print the per-stage timing tree and metrics snapshot to stderr")
		fs.StringVar(&f.cpuProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
		fs.StringVar(&f.memProfile, "memprofile", "", "write a pprof heap profile to this file")
		fs.StringVar(&f.debugAddr, "debug-addr", "", "serve live /debug endpoints (metrics, spans, stage, pprof) on this address; port 0 picks a free port")
		fs.DurationVar(&f.debugSample, "debug-sample", obs.DefaultSampleInterval, "runtime sampling interval for the /debug metrics gauges")
	}
	if groups&Faults != 0 {
		fs.StringVar(&f.faults, "faults", "", "fault-injection plan, e.g. 'seed=1; csrc.parse:error,key=AEEK' (see internal/fault)")
		fs.IntVar(&f.retryBudget, "retry-budget", fault.DefaultRetryBudget, "per-run retry budget for transient injected faults")
	}
	if groups&ModelCache != 0 {
		fs.BoolVar(&f.noModelCache, "no-model-cache", false, "disable the in-process model store; every run trains fresh")
	}
	return f
}

// Logger resolves -v / -log-level: nil when neither is set.
func (f *Flags) Logger(w io.Writer) (*slog.Logger, error) {
	if !f.verbose && f.logLevel == "" {
		return nil, nil
	}
	level := slog.LevelDebug
	if f.logLevel != "" {
		var err error
		if level, err = obs.ParseLevel(f.logLevel); err != nil {
			return nil, err
		}
	}
	return obs.NewLogger(w, level), nil
}

// Setup validates every flag, then starts the run's side machinery: the
// /debug server and runtime sampler, and the CPU profile. The context
// carries the telemetry handle, an in-process model store (none under
// -no-model-cache), a run manifest and the armed fault injector. An
// invalid flag exits 2 and a failed start exits 1, and either way nothing
// is left running. Otherwise finish must run once at exit: it tears
// everything down in a fixed order and folds any teardown failure into
// the exit code.
func (f *Flags) Setup(stderr io.Writer) (ctx context.Context, finish func(code int) int, code int) {
	fail := func(code int, err error) (context.Context, func(int) int, int) {
		fmt.Fprintf(stderr, "%s: %v\n", f.prog, err)
		return nil, nil, code
	}
	logger, err := f.Logger(stderr)
	if err != nil {
		return fail(2, err)
	}
	var inj *fault.Injector
	if f.faults != "" {
		plan, err := fault.ParsePlan(f.faults)
		if err != nil {
			return fail(2, err)
		}
		inj = fault.NewInjector(plan, f.retryBudget)
	}
	o := &obs.Obs{Log: logger}
	if f.trace != "" || f.stats || f.debugAddr != "" || f.Collect {
		o.Trace = obs.NewCollector()
		o.Metrics = obs.NewRegistry()
	}
	ctx = obs.With(context.Background(), o)
	if !f.noModelCache {
		ctx = modelstore.With(ctx, modelstore.New())
	}
	man := fault.NewManifest()
	ctx = fault.WithManifest(ctx, man)
	if inj != nil {
		ctx = fault.With(ctx, inj)
	}

	var sampler *obs.Sampler
	var debug *obs.DebugListener
	var stopCPU func() error
	// stop ends whatever has started, reporting failures through report.
	stop := func(report func(what string, err error)) {
		if debug != nil {
			if err := debug.Close(); err != nil {
				report("debug server", err)
			}
		}
		sampler.Stop()
		if stopCPU != nil {
			if err := stopCPU(); err != nil {
				report("cpu profile", err)
			}
		}
	}
	if f.debugAddr != "" {
		sampler = obs.NewSampler(o.Metrics, f.debugSample)
		sampler.Start()
		if debug, err = obs.ServeDebug(f.debugAddr, o); err != nil {
			stop(func(string, error) {})
			return fail(1, err)
		}
		fmt.Fprintf(stderr, "%s: debug server listening on http://%s/debug/\n", f.prog, debug.Addr())
	}
	if f.cpuProfile != "" {
		if stopCPU, err = obs.StartCPUProfile(f.cpuProfile); err != nil {
			stop(func(string, error) {})
			return fail(1, err)
		}
	}

	finish = func(code int) int {
		report := func(what string, err error) {
			fmt.Fprintf(stderr, "%s: %s: %v\n", f.prog, what, err)
			if code == 0 {
				code = 1
			}
		}
		stop(report)
		if f.memProfile != "" {
			if err := obs.WriteHeapProfile(f.memProfile); err != nil {
				report("heap profile", err)
			}
		}
		if f.trace != "" {
			if err := writeTrace(o.Trace, f.trace); err != nil {
				report("trace", err)
			}
		}
		if f.stats {
			fmt.Fprintf(stderr, "\nPer-stage timing tree:\n\n%s", o.Trace.TimingTree())
			fmt.Fprintf(stderr, "\nMetrics snapshot:\n\n%s", o.Metrics.Snapshot().String())
		}
		if f.faults != "" || !man.Empty() {
			fmt.Fprintf(stderr, "\n%s", man.Report())
		}
		return code
	}
	return ctx, finish, 0
}

func writeTrace(c *obs.Collector, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := c.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Command served runs the decompilation service: a long-lived HTTP JSON
// API in front of the study pipeline, with models trained once at startup
// (or loaded from the content-addressed model store) and shared across
// every request.
//
// Usage:
//
//	served [-addr HOST:PORT] [-jobs N] [-queue N] [-study-concurrency N]
//	       [-allow-fault-header] [-model-cache DIR | -no-model-cache]
//	       [-addr-file PATH] [-drain-timeout D] [-v | -log-level L]
//
// Endpoints: POST /v1/decompile, /v1/annotate, /v1/lint, /v1/metrics,
// /v1/study; GET /healthz; and the live /debug telemetry surface
// (Prometheus metrics, span ring, stage aggregates, pprof).
//
// The bound address is printed to stdout as the first output line — with
// `-addr :0` the kernel picks a free port, so scripts and tests can start
// the server and discover the port race-free (or read it from -addr-file).
//
// Annotate, metrics, decompile and lint requests share one admission
// path: -jobs of them compute at once (0: GOMAXPROCS) and -queue more
// wait (0: none); beyond that the server returns 503 with Retry-After.
// A negative -jobs, -queue, -study-concurrency or -study-queue exits 2.
// SIGTERM/SIGINT drain gracefully: in-flight and queued requests
// complete (up to -drain-timeout), then the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"decompstudy/internal/cli"
	"decompstudy/internal/obs"
	"decompstudy/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("served", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address; port 0 picks a free port (reported on stdout)")
	addrFile := fs.String("addr-file", "", "also write the bound address to this file (race-free discovery for scripts)")
	jobs := fs.Int("jobs", runtime.GOMAXPROCS(0), "worker budget: concurrent annotate/metrics/decompile/lint requests")
	queue := fs.Int("queue", serve.DefaultQueue, "admission queue depth for those requests (0: none; beyond it: 503)")
	studyConc := fs.Int("study-concurrency", serve.DefaultStudyConcurrency, "concurrent /v1/study runs")
	studyQueue := fs.Int("study-queue", serve.DefaultStudyQueue, "/v1/study wait queue depth")
	allowFault := fs.Bool("allow-fault-header", false, "honor X-Fault-Plan chaos headers (off by default)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "max wait for in-flight requests on SIGTERM")
	debugSample := fs.Duration("debug-sample", obs.DefaultSampleInterval, "runtime sampling interval for the /debug metrics gauges")
	cf := cli.Register(fs, cli.Log|cli.ModelCache)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *jobs < 0 || *queue < 0 || *studyConc < 0 || *studyQueue < 0 {
		fmt.Fprintln(stderr, "served: -jobs, -queue, -study-concurrency and -study-queue must not be negative")
		return 2
	}
	logger, err := cf.Logger(stderr)
	if err != nil {
		fmt.Fprintf(stderr, "served: %v\n", err)
		return 2
	}
	store, err := cf.Store()
	if err != nil {
		fmt.Fprintf(stderr, "served: %v\n", err)
		return 2
	}

	// A server always carries full telemetry: the /debug surface is part
	// of the API, not an opt-in.
	o := &obs.Obs{Trace: obs.NewCollector(), Metrics: obs.NewRegistry(), Log: logger}
	sampler := obs.NewSampler(o.Metrics, *debugSample)
	sampler.Start()
	defer sampler.Stop()

	warmStart := time.Now()
	srv, err := serve.NewServer(context.Background(), o, store, serve.Options{
		Jobs:             *jobs,
		Queue:            *queue,
		StudyConcurrency: *studyConc,
		StudyQueue:       *studyQueue,
		AllowFaultHeader: *allowFault,
	})
	if err != nil {
		fmt.Fprintf(stderr, "served: %v\n", err)
		return 1
	}
	defer srv.Close()
	fmt.Fprintf(stderr, "served: models warm in %s (jobs=%d queue=%d)\n",
		time.Since(warmStart).Round(time.Millisecond), *jobs, *queue)

	// Catch SIGTERM/SIGINT before the address is published: a stop sent
	// right after discovery must drain, never kill the process.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "served: %v\n", err)
		return 1
	}
	// The bound address is the first stdout line — the discovery contract
	// for scripts, tests, and loadgen (`-addr :0` is race-free).
	fmt.Fprintf(stdout, "served: listening on http://%s/\n", lis.Addr())
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(lis.Addr().String()+"\n"), 0o644); err != nil {
			fmt.Fprintf(stderr, "served: %v\n", err)
			lis.Close()
			return 1
		}
	}

	hs := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(lis) }()

	select {
	case err := <-errc:
		fmt.Fprintf(stderr, "served: %v\n", err)
		return 1
	case got := <-sig:
		fmt.Fprintf(stderr, "served: %s received, draining\n", got)
		srv.SetDraining()
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			fmt.Fprintf(stderr, "served: drain: %v\n", err)
			return 1
		}
		fmt.Fprintln(stderr, "served: drained")
	}
	return 0
}

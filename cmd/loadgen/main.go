// Command loadgen replays a configurable request mix against a running
// served instance and reports throughput, error rates, and exact
// p50/p90/p99 latency percentiles as JSON. It drives the zero-error
// serving smoke in scripts/check.sh.
//
// Usage:
//
//	loadgen -addr HOST:PORT [-duration D] [-conns N]
//	        [-mix "annotate=4,metrics=2,decompile=2,lint=1"] [-opt N]
//	        [-timeout D] [-out FILE]
//
// It runs closed-loop: each of -conns workers issues its next request as
// soon as the previous one completes. The mix cycles deterministically
// over the four study snippets, so concurrent requests repeat — exactly
// the shape the server's batch coalescing exploits. It exits 1 if any
// request fails, times out or returns a truncated body. The repository's
// latency and capacity benchmark, open loop included, is perfbench/.
//
// The JSON report lands on stdout (or -out) with one key per line, so
// shell gates can grep fields like `"errors": 0` without a JSON parser.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// reqSpec is one pre-marshaled request the schedule cycles through.
type reqSpec struct {
	endpoint string // mix kind: annotate, metrics, decompile, lint, study
	path     string
	body     []byte
}

// sample is one completed request.
type sample struct {
	endpoint string
	ms       float64
	status   int
	failed   bool // transport error or non-2xx
}

// latStats is the latency/throughput summary of one endpoint (or the
// whole run): exact order-statistic percentiles over every sample.
type latStats struct {
	Requests int     `json:"requests"`
	Errors   int     `json:"errors"`
	MeanMS   float64 `json:"mean_ms"`
	P50MS    float64 `json:"p50_ms"`
	P90MS    float64 `json:"p90_ms"`
	P99MS    float64 `json:"p99_ms"`
	MaxMS    float64 `json:"max_ms"`
}

// report is the emitted JSON document.
type report struct {
	Target          string              `json:"target"`
	Mix             string              `json:"mix"`
	Conns           int                 `json:"conns"`
	DurationSeconds float64             `json:"duration_seconds"`
	Requests        int                 `json:"requests"`
	Errors          int                 `json:"errors"`
	RPSAchieved     float64             `json:"rps_achieved"`
	Host            hostInfo            `json:"host"`
	Latency         latStats            `json:"latency"`
	Endpoints       map[string]latStats `json:"endpoints"`
}

type hostInfo struct {
	NumCPU     int `json:"num_cpu"`
	GOMAXPROCS int `json:"gomaxprocs"`
}

var snippets = []string{"AEEK", "BAPL", "POSTORDER", "TC"}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "", "served address (HOST:PORT, required)")
	duration := fs.Duration("duration", 5*time.Second, "measurement duration")
	conns := fs.Int("conns", 8, "concurrent worker connections")
	mix := fs.String("mix", "annotate=4,metrics=2,decompile=2,lint=1", "request mix as kind=weight pairs (kinds: annotate, metrics, decompile, lint, study)")
	optLevel := fs.Int("opt", 0, "optimization level sent with every request")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request timeout")
	out := fs.String("out", "", "write the JSON report to this file instead of stdout")
	warmup := fs.Duration("warmup", 500*time.Millisecond, "untimed warmup before measurement (fills caches and connections)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *addr == "" {
		fmt.Fprintln(stderr, "loadgen: -addr is required")
		return 2
	}
	schedule, err := buildSchedule(*mix, *optLevel)
	if err != nil {
		fmt.Fprintf(stderr, "loadgen: %v\n", err)
		return 2
	}
	base := "http://" + strings.TrimPrefix(*addr, "http://")
	base = strings.TrimSuffix(base, "/")

	// One shared client: keep-alive connections sized to the worker
	// count so the measurement is not dominated by TCP setup.
	client := &http.Client{
		Timeout: *timeout,
		Transport: &http.Transport{
			MaxIdleConns:        *conns * 2,
			MaxIdleConnsPerHost: *conns * 2,
		},
	}

	// Untimed warmup: prime connections and let the server reach steady
	// state so percentiles reflect serving, not startup.
	if *warmup > 0 {
		deadline := time.Now().Add(*warmup)
		var n atomic.Int64
		runWorkers(*conns, func(int) {
			for time.Now().Before(deadline) {
				shoot(client, base, schedule[int(n.Add(1))%len(schedule)])
			}
		})
	}

	var next atomic.Int64
	results := make([][]sample, *conns)
	start := time.Now()
	deadline := start.Add(*duration)

	runWorkers(*conns, func(w int) {
		for time.Now().Before(deadline) {
			i := int(next.Add(1)) % len(schedule)
			results[w] = append(results[w], shoot(client, base, schedule[i]))
		}
	})
	elapsed := time.Since(start)

	rep := summarize(results, report{
		Target:          base,
		Mix:             *mix,
		Conns:           *conns,
		DurationSeconds: elapsed.Seconds(),
		Host:            hostInfo{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)},
	})

	doc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "loadgen: %v\n", err)
		return 1
	}
	doc = append(doc, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, doc, 0o644); err != nil {
			fmt.Fprintf(stderr, "loadgen: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "loadgen: report written to %s\n", *out)
	} else {
		stdout.Write(doc)
	}
	fmt.Fprintf(stderr, "loadgen: %d requests, %d errors, %.1f req/s, p99 %.1fms\n",
		rep.Requests, rep.Errors, rep.RPSAchieved, rep.Latency.P99MS)
	if rep.Errors > 0 {
		return 1
	}
	return 0
}

func runWorkers(n int, fn func(w int)) {
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	wg.Wait()
}

// buildSchedule expands the mix spec into a request cycle: each kind
// repeated by weight, bodies cycling deterministically over the study
// snippets so concurrent workers repeat requests (the coalescing shape).
func buildSchedule(mix string, optLevel int) ([]reqSpec, error) {
	var schedule []reqSpec
	snippetAt := 0
	for _, part := range strings.Split(mix, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kind, weightStr, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("bad mix entry %q (want kind=weight)", part)
		}
		weight, err := strconv.Atoi(weightStr)
		if err != nil || weight < 0 {
			return nil, fmt.Errorf("bad mix weight %q", weightStr)
		}
		for i := 0; i < weight; i++ {
			sn := snippets[snippetAt%len(snippets)]
			snippetAt++
			spec, err := buildRequest(kind, sn, optLevel)
			if err != nil {
				return nil, err
			}
			schedule = append(schedule, spec)
		}
	}
	if len(schedule) == 0 {
		return nil, fmt.Errorf("empty mix %q", mix)
	}
	return schedule, nil
}

func buildRequest(kind, snippet string, optLevel int) (reqSpec, error) {
	marshal := func(v any) []byte {
		b, _ := json.Marshal(v)
		return b
	}
	switch kind {
	case "annotate":
		return reqSpec{kind, "/v1/annotate", marshal(map[string]any{"snippet": snippet, "opt": optLevel})}, nil
	case "metrics":
		return reqSpec{kind, "/v1/metrics", marshal(map[string]any{"snippet": snippet, "opt": optLevel})}, nil
	case "decompile":
		return reqSpec{kind, "/v1/decompile", marshal(map[string]any{"snippet": snippet, "opt": optLevel, "annotate": true})}, nil
	case "lint":
		return reqSpec{kind, "/v1/lint", marshal(map[string]any{"snippet": snippet, "opt": optLevel})}, nil
	case "study":
		return reqSpec{kind, "/v1/study", marshal(map[string]any{"seed": 26, "opt": optLevel})}, nil
	}
	return reqSpec{}, fmt.Errorf("unknown mix kind %q", kind)
}

// shoot sends one request and fully drains the response body (keep-alive
// reuse requires it; partial bodies count as failures).
func shoot(client *http.Client, base string, spec reqSpec) sample {
	start := time.Now()
	resp, err := client.Post(base+spec.path, "application/json", bytes.NewReader(spec.body))
	if err != nil {
		return sample{endpoint: spec.endpoint, ms: msSince(start), failed: true}
	}
	_, cerr := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return sample{
		endpoint: spec.endpoint,
		ms:       msSince(start),
		status:   resp.StatusCode,
		failed:   cerr != nil || resp.StatusCode < 200 || resp.StatusCode >= 300,
	}
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t).Nanoseconds()) / 1e6
}

func summarize(results [][]sample, rep report) report {
	byEndpoint := map[string][]sample{}
	var all []sample
	for _, rs := range results {
		for _, s := range rs {
			all = append(all, s)
			byEndpoint[s.endpoint] = append(byEndpoint[s.endpoint], s)
		}
	}
	rep.Requests = len(all)
	rep.Latency = stats(all)
	rep.Errors = rep.Latency.Errors
	if rep.DurationSeconds > 0 {
		rep.RPSAchieved = float64(len(all)) / rep.DurationSeconds
	}
	rep.Endpoints = map[string]latStats{}
	for ep, ss := range byEndpoint {
		rep.Endpoints[ep] = stats(ss)
	}
	return rep
}

func stats(ss []sample) latStats {
	st := latStats{Requests: len(ss)}
	if len(ss) == 0 {
		return st
	}
	lats := make([]float64, 0, len(ss))
	var sum float64
	for _, s := range ss {
		if s.failed {
			st.Errors++
		}
		lats = append(lats, s.ms)
		sum += s.ms
	}
	sort.Float64s(lats)
	st.MeanMS = round3(sum / float64(len(lats)))
	st.P50MS = round3(pct(lats, 0.50))
	st.P90MS = round3(pct(lats, 0.90))
	st.P99MS = round3(pct(lats, 0.99))
	st.MaxMS = round3(lats[len(lats)-1])
	return st
}

// pct is the exact order statistic: the smallest sample ≥ the q-quantile
// position (no interpolation, so reported percentiles are real latencies).
func pct(sorted []float64, q float64) float64 {
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func round3(f float64) float64 {
	return math.Round(f*1000) / 1000
}

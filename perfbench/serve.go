package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"decompstudy/internal/compile/opt"
	"decompstudy/internal/corpus"
	"decompstudy/internal/embed"
	"decompstudy/internal/modelstore"
	"decompstudy/internal/namerec"
	"decompstudy/internal/par"
)

// mix is one serve workload: how its requests are made and the rates it
// is driven at.
type mix struct {
	name string
	// build makes n requests for one phase. tag keeps generated programs of
	// different phases distinct; tail asks for the heavy tail of the input
	// distribution, which the capacity phase leaves out.
	build func(rng *rand.Rand, n int, tag string, tail bool) ([]*request, error)
	// refRate is the reference open-loop rate (req/s) the latency figures
	// are measured at.
	refRate float64
	// ladder is the fixed rate ladder (req/s) max_rate is found on.
	ladder []float64
	// limitMs is the latency limit a ladder step's tail must meet.
	limitMs float64
	// capacityOps is the request count of the closed-loop capacity phase.
	capacityOps int
	// warmupOps are sent closed-loop before timing starts: enough for
	// served's telemetry span ring (4096 spans) to fill, after which its
	// heap, and so its speed, are steady.
	warmupOps int
}

const (
	// serveSetups is how many times served is started; setup_s is the
	// median spawn-to-healthy time.
	serveSetups = 15
	// refShare and ladderShare split -seconds between the reference-rate
	// phase and the rate ladder; the capacity phase is sized by count.
	refShare    = 0.55
	ladderShare = 0.2
	// serveRounds splits the reference phase and the capacity phase into
	// alternating segments spread over the run.
	serveRounds = 3
	// capacityChunks splits the capacity phase; capacity_rps is the
	// median chunk throughput, so a burst of outside load spoils one chunk
	// rather than the figure.
	capacityChunks = 6
)

var snippetsMix = mix{
	name:        "serve_snippets",
	build:       buildSnippetRequests,
	refRate:     120,
	ladder:      []float64{250, 350, 450, 550},
	limitMs:     25,
	capacityOps: 1800,
	warmupOps:   800,
}

var sourcesMix = mix{
	name:        "serve_sources",
	build:       buildSourceRequests,
	refRate:     70,
	ladder:      []float64{100, 150, 200, 250},
	limitMs:     250,
	capacityOps: 1200,
	warmupOps:   600,
}

// snippetEndpoints weights the serve_snippets request mix.
var snippetEndpoints = []string{"annotate", "annotate", "annotate", "annotate", "metrics", "metrics", "decompile", "decompile", "lint", "lint"}

// buildSnippetRequests draws requests over the 4 study snippets × opt
// 0/1/2 × 4 endpoints: 48 distinct bodies, so requests repeat heavily.
// Every (snippet, level, endpoint slot) combination appears equally often.
func buildSnippetRequests(rng *rand.Rand, n int, _ string, _ bool) ([]*request, error) {
	snips := corpus.Snippets()
	out := make([]*request, n)
	for i, combo := range balanced(rng, n, len(snips)*3*len(snippetEndpoints)) {
		sn := snips[combo%len(snips)]
		level := opt.Level(combo / len(snips) % 3)
		ep := snippetEndpoints[combo/len(snips)/3]
		raw, err := json.Marshal(map[string]any{"snippet": sn.ID, "opt": int(level)})
		if err != nil {
			return nil, err
		}
		out[i] = &request{endpoint: ep, body: raw, snippet: sn, level: level}
	}
	return out, nil
}

// nestedShare is the share of serve_sources requests, in phases with the
// tail, that carry a deep-nesting unit.
const nestedShare = 0.05

// buildSourceRequests gives every request its own generated program:
// ordinary units go to /v1/decompile (annotated) or /v1/lint in equal
// numbers, at levels 0/1/2 in equal numbers; the deep-nesting tail goes to
// /v1/decompile, levels in turn.
func buildSourceRequests(rng *rand.Rand, n int, tag string, tail bool) ([]*request, error) {
	share := 0.0
	if tail {
		share = nestedShare
	}
	units, err := GenerateSources(rng.Int63(), n, share, tag)
	if err != nil {
		return nil, err
	}
	combos := balanced(rng, n, 6)
	out := make([]*request, n)
	nestedSeen := 0
	for i, u := range units {
		rq := &request{endpoint: "lint", source: u.Text, level: opt.Level(combos[i] % 3), nested: u.Nested, depth: u.Depth}
		if u.Nested {
			rq.level = opt.Level(nestedSeen % 3)
			nestedSeen++
		}
		if u.Nested || combos[i] >= 3 {
			rq.endpoint, rq.annotate = "decompile", true
		}
		if err := rq.encode(); err != nil {
			return nil, err
		}
		out[i] = rq
	}
	return out, nil
}

// encode sets the wire body of a source request.
func (rq *request) encode() error {
	body := map[string]any{"source": rq.source, "opt": int(rq.level)}
	if rq.annotate {
		body["annotate"] = true
	}
	raw, err := json.Marshal(body)
	rq.body = raw
	return err
}

// phase is one stretch of load with its own tallies.
type phase struct {
	Name      string  `json:"name"`
	Mode      string  `json:"mode"`
	Rate      float64 `json:"rate_rps,omitempty"`
	Sent      int     `json:"sent"`
	Succeeded int     `json:"succeeded"`
	Failed    int     `json:"failed"`
	Refused   int     `json:"refused"`
	ElapsedS  float64 `json:"elapsed_s"`
	// Achieved is succeeded requests per second of the phase.
	Achieved float64        `json:"achieved_rps"`
	Latency  latencySummary `json:"latency"`
	LateP99  float64        `json:"gen_late_ms_p99,omitempty"`
	Pass     *bool          `json:"meets_limit,omitempty"`

	lat  []float64
	late []float64
	reqs []*request
}

func runServe(_ context.Context, c config, m mix) (*outcome, error) {
	if c.served == "" {
		return nil, fmt.Errorf("-served is required")
	}
	rng := rand.New(rand.NewSource(c.seed))
	secs := c.seconds.Seconds()
	nRef := int(math.Round(m.refRate * secs * refShare))
	stepSecs := secs * ladderShare / float64(len(m.ladder))

	// Inputs for every phase, made from the seed before anything runs.
	type phasePlan struct {
		name string
		n    int
		tail bool
	}
	plan := []phasePlan{{"warmup", m.warmupOps, true}}
	for r := 0; r < serveRounds; r++ {
		plan = append(plan,
			phasePlan{fmt.Sprintf("reference%d", r), nRef / serveRounds, true},
			phasePlan{fmt.Sprintf("capacity%d", r), m.capacityOps / serveRounds, false})
	}
	for i, r := range m.ladder {
		plan = append(plan, phasePlan{fmt.Sprintf("ladder%d", i), int(math.Round(r * stepSecs)), true})
	}
	reqs := map[string][]*request{}
	var all []*request
	for _, p := range plan {
		rs, err := m.build(rng, p.n, p.name, p.tail)
		if err != nil {
			return nil, fmt.Errorf("building %s requests: %w", p.name, err)
		}
		reqs[p.name] = rs
		all = append(all, rs...)
	}

	// The oracle: every distinct body computed through the library before
	// timing starts, so checking a response is a byte compare.
	l, err := newLib(c.jobs)
	if err != nil {
		return nil, err
	}
	expected, computeMs, unannotated, err := l.expectAll(all, c.jobs)
	if err != nil {
		return nil, err
	}

	// Set-up: spawn served until healthy, serveSetups times; the last one
	// serves the run.
	var setups []float64
	var srv *served
	for i := 0; i < serveSetups; i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return nil, err
			}
		}
		srv, err = startServed(c.served)
		if err != nil {
			return nil, err
		}
		setups = append(setups, srv.setup.Seconds())
	}
	defer srv.stop()

	o := &outcome{correct: true, metrics: map[string]float64{}, report: map[string]any{}}
	cl := newClients(srv.url, c.jobs)
	var (
		failMu   sync.Mutex
		failures []string
	)
	tally := func(p *phase) {
		o.attempted += int64(p.Sent)
		o.failed += int64(p.Failed)
	}
	check := func(rq *request, status int, body []byte, err error) bool {
		ok := err == nil && status == http.StatusOK && bytes.Equal(body, expected[rq.want])
		if ok {
			return true
		}
		failMu.Lock()
		defer failMu.Unlock()
		if len(failures) < 5 {
			switch {
			case err != nil:
				failures = append(failures, fmt.Sprintf("%s: %v", rq.endpoint, err))
			case status != http.StatusOK:
				failures = append(failures, fmt.Sprintf("%s: status %d: %.200s", rq.endpoint, status, body))
			default:
				failures = append(failures, fmt.Sprintf("%s: response differs from the library's at %s", rq.endpoint, firstDiff(expected[rq.want], body)))
			}
		}
		return false
	}

	warm := cl.closedLoop("warmup", reqs["warmup"], check)
	tally(warm)
	before, err := srv.debugCounters()
	if err != nil {
		return nil, err
	}
	srvCPU0, err := procCPU(srv.pid())
	if err != nil {
		return nil, err
	}
	genCPU0 := selfCPU()
	t0 := time.Now()

	// Reference-rate segments alternate with capacity segments, so both
	// figures sample the whole run rather than one stretch of it.
	var refSegs, capSegs []*phase
	var chunkRates []float64
	refDelta := counters{}
	for r := 0; r < serveRounds; r++ {
		b, err := srv.debugCounters()
		if err != nil {
			return nil, err
		}
		seg := cl.openLoop(fmt.Sprintf("reference%d", r), reqs[fmt.Sprintf("reference%d", r)], m.refRate, rng, check)
		a, err := srv.debugCounters()
		if err != nil {
			return nil, err
		}
		refDelta.add(a.minus(b))
		cp, rates := cl.capacity(fmt.Sprintf("capacity%d", r), reqs[fmt.Sprintf("capacity%d", r)], capacityChunks/serveRounds, check)
		refSegs, capSegs = append(refSegs, seg), append(capSegs, cp)
		chunkRates = append(chunkRates, rates...)
	}
	ref, capPhase := mergePhases("reference", refSegs), mergePhases("capacity", capSegs)
	tally(ref)
	tally(capPhase)
	phases := []*phase{ref, capPhase}
	maxRate := 0.0
	for i, rate := range m.ladder {
		st := cl.openLoop(fmt.Sprintf("ladder%d", i), reqs[fmt.Sprintf("ladder%d", i)], rate, rng, check)
		tally(st)
		pass := st.Failed == 0 && st.Latency.Tail <= m.limitMs && st.Achieved >= 0.95*rate
		st.Pass = &pass
		phases = append(phases, st)
		if !pass {
			break
		}
		maxRate = st.Achieved
	}

	wall := time.Since(t0)
	genCPU := selfCPU() - genCPU0
	srvCPU1, err := procCPU(srv.pid())
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMiB(fmt.Sprint(srv.pid()))
	if err != nil {
		return nil, err
	}
	end, err := srv.debugCounters()
	if err != nil {
		return nil, err
	}
	if err := srv.stop(); err != nil {
		return nil, err
	}
	done := 0
	var late []float64
	for _, p := range phases {
		done += p.Succeeded
		late = append(late, p.late...)
	}
	if o.failed > 0 {
		o.correct = false
	}
	if done == 0 {
		return nil, fmt.Errorf("no request succeeded: %v", failures)
	}

	o.metrics["setup_s"] = quantile(setups, 0.5)
	o.metrics["lat_p50_ms"] = ref.Latency.P50
	// The tail is each reference segment's tail, medianed over segments:
	// a host stall that spoils one segment does not move it.
	var segTails []float64
	for _, seg := range refSegs {
		segTails = append(segTails, seg.Latency.Tail)
	}
	o.metrics["lat_tail_ms"] = quantile(segTails, 0.5)
	o.metrics["capacity_rps"] = quantile(chunkRates, 0.5)
	o.metrics["cpu_ms_per_op"] = durMs(srvCPU1-srvCPU0) / float64(done)
	o.metrics["peak_rss_mb"] = rss
	o.metrics["serve.max_rate_rps"] = maxRate
	o.metrics["gen.late_ms_p99"] = quantile(late, 0.99)
	o.metrics["gen.cpu_share"] = genCPU.Seconds() / (wall.Seconds() * float64(c.jobs))
	o.metrics["serve.batch.size_mean"] = ratio(refDelta.sum("serve.batch.items"), refDelta.sum("serve.batch.flushes"))
	o.metrics["serve.batch.coalesced_share"] = ratio(refDelta.sum("serve.batch.coalesced"), refDelta.sum("serve.batch.items"))
	o.metrics["serve.batch.timer_flush_share"] = ratio(refDelta.sum("serve.batch.flushes", `reason="timer"`), refDelta.sum("serve.batch.flushes"))
	o.metrics["serve.admission.queued"] = refDelta.sum("serve.admission.queued")
	o.metrics["embed.cache.hit_rate"] = ratio(refDelta.sum("embed.cache.lookups", `result="hit"`), refDelta.sum("embed.cache.lookups"))
	o.metrics["serve.admission.rejected"] = end.minus(before).sum("serve.admission.rejected")
	o.metrics["modelstore.hit_rate"] = ratio(end.sum("modelstore.lookups", `result="hit"`)+end.sum("modelstore.lookups", `result="disk_hit"`), end.sum("modelstore.lookups"))

	nested := 0
	for _, rq := range ref.reqs {
		if rq.nested {
			nested++
		}
	}
	o.report["setup_s_samples"] = setups
	o.report["capacity_chunk_rps"] = chunkRates
	o.report["reference_segments"] = refSegs
	o.report["phases"] = phases
	o.report["limit_ms"] = m.limitMs
	o.report["connections"] = c.jobs
	o.report["requests_total"] = len(all)
	o.report["distinct_bodies"] = len(expected)
	o.report["reference_nested_share"] = float64(nested) / float64(len(ref.reqs))
	o.report["failures"] = failures
	o.report["oracle_compute_ms_p50"] = quantile(computeMs, 0.5)
	o.report["decompile_unannotated_for_ties"] = unannotated
	if m.name == "serve_sources" {
		o.report["sources"] = sourceProfile(all)
	}
	if c.trace {
		if err := l.replayTraced(c, ref, o); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// firstDiff describes where got first departs from want.
func firstDiff(want, got []byte) string {
	w, g := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d: want %.160q, got %.160q", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("length: want %d lines, got %d", len(w), len(g))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// sourceProfile summarizes the generated programs: size and nesting-depth
// distributions and the nested-tail share.
func sourceProfile(reqs []*request) map[string]any {
	var sizes, depths []float64
	nested := 0
	for _, rq := range reqs {
		sizes = append(sizes, float64(len(rq.source)))
		depths = append(depths, float64(rq.depth))
		if rq.nested {
			nested++
		}
	}
	dist := func(xs []float64) map[string]float64 {
		return map[string]float64{"min": quantile(xs, 0), "p50": quantile(xs, 0.5), "p90": quantile(xs, 0.9), "p99": quantile(xs, 0.99), "max": quantile(xs, 1)}
	}
	return map[string]any{"bytes": dist(sizes), "depth": dist(depths), "nested_share": float64(nested) / float64(len(reqs))}
}

// newLib trains the two warm models as served does at startup.
func newLib(jobs int) (*lib, error) {
	ctx := par.WithJobs(context.Background(), jobs)
	store := modelstore.New()
	ctxs, err := corpus.EmbeddingContexts()
	if err != nil {
		return nil, err
	}
	em, err := store.EmbedModel(ctx, ctxs, &embed.Config{Dim: 24})
	if err != nil {
		return nil, err
	}
	rm, err := store.NamerecModel(ctx, corpus.TrainingSources(), corpus.TrainingFiles)
	if err != nil {
		return nil, err
	}
	l := &lib{em: em, rm: rm}
	files, err := corpus.TrainingFiles()
	if err != nil {
		return nil, err
	}
	for i := 0; i < tieCheckModels; i++ {
		m, err := namerec.TrainModelCtx(ctx, files)
		if err != nil {
			return nil, err
		}
		l.alts = append(l.alts, m)
	}
	return l, nil
}

// tieCheckModels is how many separately trained recovery models must
// agree before an annotated decompile counts as determined by its input;
// a two-way tie escapes them with probability 2^-tieCheckModels.
const tieCheckModels = 10

// expectAll computes the expected body of every distinct request body on
// jobs workers, sets each request's want index, and returns the bodies
// with the compute time of each distinct body.
func (l *lib) expectAll(reqs []*request, jobs int) ([][]byte, []float64, int, error) {
	index := map[string]int{}
	var uniq []*request
	for _, rq := range reqs {
		key := rq.endpoint + "\x00" + string(rq.body)
		i, ok := index[key]
		if !ok {
			i = len(uniq)
			index[key] = i
			uniq = append(uniq, rq)
		}
		rq.want = i
	}
	bodies := make([][]byte, len(uniq))
	ms := make([]float64, len(uniq))
	errs := make([]error, len(uniq))
	var settled atomic.Int64
	l.settle = true
	defer func() { l.settle = false }()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(uniq) {
					return
				}
				rq := uniq[i]
				s := time.Now()
				bodies[i], errs[i] = l.compute(context.Background(), tracer{}, 0, rq)
				if errors.Is(errs[i], errAmbiguous) {
					// Every source body is distinct, so re-encoding rq
					// cannot merge it with another entry.
					rq.annotate = false
					if errs[i] = rq.encode(); errs[i] == nil {
						bodies[i], errs[i] = l.compute(context.Background(), tracer{}, 0, rq)
					}
					settled.Add(1)
				}
				ms[i] = durMs(time.Since(s))
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, nil, 0, fmt.Errorf("library computation of a %s request failed: %w", uniq[i].endpoint, err)
		}
	}
	return bodies, ms, int(settled.Load()), nil
}

// replayTraced replays the reference phase's requests through the library:
// each once untraced (the compute time serve.overhead_ms subtracts) and
// once traced (the spans the per-layer metrics come from). It also replays
// served's model warm-up through a fresh model store.
func (l *lib) replayTraced(c config, ref *phase, o *outcome) error {
	rec := NewRecorder()
	o.rec = rec
	ctx := par.WithJobs(context.Background(), c.jobs)

	// Model warm-up, as serve.NewServer runs it, with the trainings
	// replayed under it.
	t := tracer{rec: rec, op: -1}
	store := modelstore.New()
	ctxs, err := corpus.EmbeddingContexts()
	if err != nil {
		return err
	}
	files, err := corpus.TrainingFiles()
	if err != nil {
		return err
	}
	warmID, warm := t.span(0, "modelstore.warm", func() {
		if _, err = store.EmbedModel(ctx, ctxs, &embed.Config{Dim: 24}); err == nil {
			_, err = store.NamerecModel(ctx, corpus.TrainingSources(), corpus.TrainingFiles)
		}
	})
	if err != nil {
		return err
	}
	t.span(warmID, "embed.train", func() { _, err = embed.TrainCtx(ctx, ctxs, &embed.Config{Dim: 24}) })
	if err != nil {
		return err
	}
	t.span(warmID, "namerec.train", func() { _, err = namerec.TrainModelCtx(ctx, files) })
	if err != nil {
		return err
	}
	o.metrics["modelstore.warm_ms"] = durMs(warm)

	var plain []float64
	roots := make([]int, len(ref.reqs))
	for i, rq := range ref.reqs {
		s := time.Now()
		if _, err := l.compute(ctx, tracer{}, 0, rq); err != nil {
			return err
		}
		plain = append(plain, durMs(time.Since(s)))
		roots[i] = rec.Begin(i, 0, "op")
		_, err := l.compute(ctx, tracer{rec: rec, op: i}, roots[i], rq)
		rec.End(roots[i])
		if err != nil {
			return err
		}
	}
	n := float64(len(ref.reqs))
	spans := rec.Spans()
	var opSpans []Span
	// A traced request's own cost is its calls made under the root; the
	// replays nested under those calls are extra work, not overhead.
	tracedCalls := make([]float64, len(ref.reqs))
	for _, s := range spans {
		if s.Op < 0 {
			continue
		}
		opSpans = append(opSpans, s)
		if s.Parent == roots[s.Op] {
			tracedCalls[s.Op] += durMs(s.Dur())
		}
	}
	traced := tracedCalls
	total, _ := LayerTimes(spans)
	o.metrics["embed.train.ms"] = durMs(total["embed.train"])
	o.metrics["namerec.train.ms"] = durMs(total["namerec.train"])
	pipelineLayerMetrics(rec, opSpans, n, o.metrics)
	computeP50 := quantile(plain, 0.5)
	o.metrics["serve.overhead_ms"] = ref.Latency.P50 - computeP50
	o.metrics["trace.overhead_pct"] = (quantile(traced, 0.5)/computeP50 - 1) * 100
	_, maxOp := rec.MaxOf("decomp.lift.ms_max")
	liftMax := map[string]any{"op": maxOp}
	if maxOp >= 0 && maxOp < len(ref.reqs) {
		liftMax["nested"] = ref.reqs[maxOp].nested
		liftMax["depth"] = ref.reqs[maxOp].depth
		liftMax["endpoint"] = ref.reqs[maxOp].endpoint
	}
	o.report["decomp_lift_max_from"] = liftMax
	o.report["replay"] = map[string]any{"requests": len(ref.reqs), "compute_ms_p50": computeP50, "traced_compute_ms_p50": quantile(traced, 0.5)}
	return nil
}

// ---- served process --------------------------------------------------------

// served is a running served child process.
type served struct {
	cmd    *exec.Cmd
	url    string
	setup  time.Duration
	stderr *bytes.Buffer
	copied chan struct{}
	once   sync.Once
	err    error
}

// startServed spawns served on an ephemeral loopback port and waits until
// /healthz answers 200; setup is that spawn-to-healthy time, model warm-up
// included.
func startServed(path string) (*served, error) {
	s := &served{stderr: &bytes.Buffer{}, copied: make(chan struct{})}
	start := time.Now()
	s.cmd = exec.Command(path, "-addr", "127.0.0.1:0")
	s.cmd.Stderr = &limitedWriter{w: s.stderr, n: 64 << 10}
	// The child dies with this process whatever happens to it.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting served: %w", err)
	}
	// The first stdout line reports the bound address.
	br := bufio.NewReader(out)
	line, err := br.ReadString('\n')
	go func() {
		io.Copy(io.Discard, br)
		close(s.copied)
	}()
	if err != nil {
		s.stop()
		return nil, fmt.Errorf("served exited before listening: %v: %s", err, s.stderr)
	}
	addr := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), "served: listening on"))
	s.url = strings.TrimSuffix(addr, "/")
	client := &http.Client{Timeout: 5 * time.Second}
	for {
		resp, err := client.Get(s.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(start) > 60*time.Second {
			s.stop()
			return nil, fmt.Errorf("served not healthy after 60s: %s", s.stderr)
		}
		time.Sleep(time.Millisecond)
	}
	s.setup = time.Since(start)
	client.CloseIdleConnections()
	return s, nil
}

func (s *served) pid() int { return s.cmd.Process.Pid }

// stop drains served with SIGTERM (SIGKILL after 20 s) and waits for it to
// exit. It is safe to call more than once.
func (s *served) stop() error {
	s.once.Do(func() {
		s.cmd.Process.Signal(syscall.SIGTERM)
		exited := make(chan error, 1)
		go func() { exited <- s.cmd.Wait() }()
		select {
		case err := <-exited:
			// served installs its SIGTERM handler just after it starts
			// serving, so a server stopped right after its first /healthz
			// can die of the signal instead of draining. Either way it
			// has stopped.
			var ee *exec.ExitError
			if errors.As(err, &ee) {
				if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
					err = nil
				}
			}
			if err != nil {
				s.err = fmt.Errorf("served: %v: %s", err, s.stderr)
			}
		case <-time.After(20 * time.Second):
			s.cmd.Process.Kill()
			<-exited
			s.err = fmt.Errorf("served did not drain within 20s")
		}
		<-s.copied
	})
	return s.err
}

// limitedWriter keeps the first n bytes written to it.
type limitedWriter struct {
	w io.Writer
	n int
}

func (l *limitedWriter) Write(p []byte) (int, error) {
	if l.n > 0 {
		k := min(len(p), l.n)
		l.w.Write(p[:k])
		l.n -= k
	}
	return len(p), nil
}

// counters is a /debug/metrics counter snapshot keyed as served exports
// them: name{label=value,...}.
type counters map[string]int64

func (s *served) debugCounters() (counters, error) {
	resp, err := http.Get(s.url + "/debug/metrics?format=json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("decoding /debug/metrics: %w", err)
	}
	return snap.Counters, nil
}

// add accumulates o into c.
func (c counters) add(o counters) {
	for k, v := range o {
		c[k] += v
	}
}

func (c counters) minus(o counters) counters {
	out := counters{}
	for k, v := range c {
		out[k] = v - o[k]
	}
	return out
}

// sum adds the counters named name whose labels include every given
// label=value.
func (c counters) sum(name string, labels ...string) float64 {
	total := 0.0
	for k, v := range c {
		base, rest, _ := strings.Cut(k, "{")
		if base != name {
			continue
		}
		match := true
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				match = false
			}
		}
		if match {
			total += float64(v)
		}
	}
	return total
}

// ---- load generation ---------------------------------------------------------

// clients is the load generator's connection pool: one keep-alive
// connection per worker, at most nproc.
type clients struct {
	url   string
	conns []*http.Client
}

func newClients(url string, n int) *clients {
	c := &clients{url: url}
	for i := 0; i < n; i++ {
		c.conns = append(c.conns, &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true},
			Timeout:   60 * time.Second,
		})
	}
	return c
}

// send posts one request and returns the status and body.
func (c *clients) send(conn *http.Client, rq *request) (int, []byte, error) {
	resp, err := conn.Post(c.url+"/v1/"+rq.endpoint, "application/json", bytes.NewReader(rq.body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

type checkFunc func(rq *request, status int, body []byte, err error) bool

// openLoop sends reqs on a seeded schedule at rate req/s, whatever the
// server's pace. A request is timed from its due time, so waiting for a
// free connection counts against it. The schedule's gaps are exponential
// (Poisson arrivals), drawn stratified: every phase of the same length has
// the same gaps, in seeded order.
func (c *clients) openLoop(name string, reqs []*request, rate float64, rng *rand.Rand, check checkFunc) *phase {
	n := len(reqs)
	gaps := stratified(rng, n)
	due := make([]time.Duration, n)
	var at float64
	for i, u := range gaps {
		due[i] = time.Duration(at * float64(time.Second))
		at += -math.Log(1-u) / rate
	}
	p := &phase{Name: name, Mode: "open", Rate: rate, Sent: n, reqs: reqs, lat: make([]float64, n), late: make([]float64, n)}
	type job struct {
		i   int
		due time.Time
	}
	jobs := make(chan job, n) // one slot per scheduled send: the dispatcher never blocks
	ok := make([]bool, n)
	status := make([]int, n)
	start := time.Now()
	var wg sync.WaitGroup
	for _, conn := range c.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				st, body, err := c.send(conn, reqs[j.i])
				p.lat[j.i] = durMs(time.Since(j.due))
				status[j.i] = st
				ok[j.i] = check(reqs[j.i], st, body, err)
			}
		}()
	}
	for i := range reqs {
		d := start.Add(due[i])
		if w := time.Until(d); w > 0 {
			time.Sleep(w)
		}
		p.late[i] = durMs(time.Since(d))
		jobs <- job{i, d}
	}
	close(jobs)
	wg.Wait()
	p.ElapsedS = time.Since(start).Seconds()
	p.finish(ok, status)
	p.Latency = summarize(p.lat, tailQuantile(n))
	p.LateP99 = quantile(p.late, 0.99)
	return p
}

// closedLoop sends reqs over every connection, each sending its next
// request when the previous one is answered.
func (c *clients) closedLoop(name string, reqs []*request, check checkFunc) *phase {
	n := len(reqs)
	p := &phase{Name: name, Mode: "closed", Sent: n, reqs: reqs, lat: make([]float64, n)}
	ok := make([]bool, n)
	status := make([]int, n)
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for _, conn := range c.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				s := time.Now()
				st, body, err := c.send(conn, reqs[i])
				p.lat[i] = durMs(time.Since(s))
				status[i] = st
				ok[i] = check(reqs[i], st, body, err)
			}
		}()
	}
	wg.Wait()
	p.ElapsedS = time.Since(start).Seconds()
	p.finish(ok, status)
	p.Latency = summarize(p.lat, tailQuantile(n))
	return p
}

// failedLatencyMs stands in for the latency of a failed request, so it
// misses any limit.
const failedLatencyMs = 1e9

// capacity runs a closed-loop capacity segment in equal chunks and
// returns the whole segment with each chunk's throughput.
func (c *clients) capacity(name string, reqs []*request, chunks int, check checkFunc) (*phase, []float64) {
	var parts []*phase
	var rates []float64
	size := (len(reqs) + chunks - 1) / chunks
	for lo := 0; lo < len(reqs); lo += size {
		ch := c.closedLoop(name, reqs[lo:min(lo+size, len(reqs))], check)
		parts = append(parts, ch)
		rates = append(rates, ch.Achieved)
	}
	return mergePhases(name, parts), rates
}

// mergePhases folds segments of one kind of load into one phase: counts
// and elapsed time add, latency samples pool.
func mergePhases(name string, parts []*phase) *phase {
	p := &phase{Name: name, Mode: parts[0].Mode, Rate: parts[0].Rate}
	for _, q := range parts {
		p.Sent += q.Sent
		p.Succeeded += q.Succeeded
		p.Failed += q.Failed
		p.Refused += q.Refused
		p.ElapsedS += q.ElapsedS
		p.lat = append(p.lat, q.lat...)
		p.late = append(p.late, q.late...)
		p.reqs = append(p.reqs, q.reqs...)
	}
	p.Achieved = float64(p.Succeeded) / p.ElapsedS
	p.Latency = summarize(p.lat, tailQuantile(len(p.lat)))
	if len(p.late) > 0 {
		p.LateP99 = quantile(p.late, 0.99)
	}
	return p
}

// finish tallies a phase. A refused request (503) is also a failure.
func (p *phase) finish(ok []bool, status []int) {
	for i, good := range ok {
		switch {
		case good:
			p.Succeeded++
		case status[i] == http.StatusServiceUnavailable:
			p.Refused++
			p.Failed++
			p.lat[i] = failedLatencyMs
		default:
			p.Failed++
			p.lat[i] = failedLatencyMs
		}
	}
	p.Achieved = float64(p.Succeeded) / p.ElapsedS
}

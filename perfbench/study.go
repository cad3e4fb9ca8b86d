package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"decompstudy/internal/analysis"
	"decompstudy/internal/compile/opt"
	"decompstudy/internal/core"
	"decompstudy/internal/corpus"
	"decompstudy/internal/embed"
	"decompstudy/internal/experiments"
	"decompstudy/internal/fault"
	"decompstudy/internal/htest"
	"decompstudy/internal/linalg"
	"decompstudy/internal/metrics"
	"decompstudy/internal/mixed"
	"decompstudy/internal/modelstore"
	"decompstudy/internal/namerec"
	"decompstudy/internal/obs"
	"decompstudy/internal/par"
	"decompstudy/internal/qualcode"
	"decompstudy/internal/survey"
)

// seed26SHA256 is the sha256 of `studysim -seed 26` (every artifact, paper
// order), the repository's behavioural contract.
const seed26SHA256 = "0672547f27b9be0afe1980f536d2b52cf10cc377aa9ba3c9a1db240e8f1e7b9a"

const (
	// studyMinOps is the fewest studies a run measures, so its p90 has ten
	// samples beyond it; a run measures longer than -seconds if needed.
	studyMinOps = 100
	// studySetups is how many times set-up is repeated; setup_s is their
	// median.
	studySetups = 9
	// studyMaxWall caps a run's measuring time whatever studyMinOps asks.
	studyMaxWall = 120 * time.Second
)

// studySeeds is the run's study-seed list: one seed from each cost
// stratum (seed 26 stands for its own stratum), in seeded order. Studies
// cycle through it.
func studySeeds(wseed int64) []int64 {
	rng := rand.New(rand.NewSource(wseed))
	out := make([]int64, 0, len(studySeedStrata))
	for _, st := range studySeedStrata {
		pick := st[rng.Intn(len(st))]
		for _, s := range st {
			if s == 26 {
				pick = 26
			}
		}
		out = append(out, pick)
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// studyOracle checks every study's output: seed 26 must hash to the
// pinned contract, every seed must repeat its own bytes exactly, and no
// artifact may be unavailable or excluded.
type studyOracle struct {
	hashes map[int64][32]byte
}

func (o *studyOracle) check(seed int64, out string, man *fault.Manifest) error {
	if strings.Contains(out, " unavailable\n") {
		return fmt.Errorf("seed %d: output has an unavailable section", seed)
	}
	if !man.Empty() {
		return fmt.Errorf("seed %d: run manifest not empty:\n%s", seed, man.Report())
	}
	h := sha256.Sum256([]byte(out))
	if seed == 26 && hex.EncodeToString(h[:]) != seed26SHA256 {
		return fmt.Errorf("seed 26: output sha256 %x, want %s", h, seed26SHA256)
	}
	if prev, ok := o.hashes[seed]; ok && prev != h {
		return fmt.Errorf("seed %d: output differs from its first run", seed)
	}
	o.hashes[seed] = h
	return nil
}

// studyCtx is the context a study runs under, wired as studysim wires it:
// telemetry off, jobs workers, a fresh in-memory model store (so training
// is paid as a CLI run pays it) and a fresh run manifest.
func studyCtx(jobs int) (context.Context, *fault.Manifest) {
	man := fault.NewManifest()
	ctx := par.WithJobs(obs.With(context.Background(), &obs.Obs{}), jobs)
	ctx = modelstore.With(ctx, modelstore.New())
	return fault.WithManifest(ctx, man), man
}

// studyOp is one full paper regeneration.
func studyOp(seed int64, jobs int) (string, *experiments.Runner, *fault.Manifest, error) {
	ctx, man := studyCtx(jobs)
	r, err := experiments.NewRunnerCtx(ctx, &core.Config{Seed: seed, Jobs: jobs})
	if err != nil {
		return "", nil, man, err
	}
	out, err := r.All()
	return out, r, man, err
}

func runStudy(_ context.Context, c config) (*outcome, error) {
	seeds := studySeeds(c.seed)
	oracle := &studyOracle{hashes: map[int64][32]byte{}}

	// Set-up: the first operation made ready, studySetups times. Each
	// repetition regenerates seed 26 and checks it against the contract.
	var setups []float64
	for i := 0; i < studySetups; i++ {
		t0 := time.Now()
		out, _, man, err := studyOp(26, c.jobs)
		if err != nil {
			return nil, fmt.Errorf("set-up study: %w", err)
		}
		if err := oracle.check(26, out, man); err != nil {
			return nil, fmt.Errorf("set-up study: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	o := &outcome{correct: true, metrics: map[string]float64{}, report: map[string]any{}}
	var rec *Recorder
	if c.trace {
		rec = NewRecorder()
		o.rec = rec
	}
	var lat, tracedLat []float64
	var failures []string
	cacheHit := 0.0
	cpu0 := selfCPU()
	t0 := time.Now()
	op := 0
	for ; ; op++ {
		el := time.Since(t0)
		if el >= studyMaxWall || (el >= c.seconds && (c.trace || len(lat) >= studyMinOps)) {
			break
		}
		seed := seeds[op%len(seeds)]
		traced := c.trace && op%2 == 1
		o.attempted++
		var (
			out string
			r   *experiments.Runner
			man *fault.Manifest
			d   time.Duration
			err error
		)
		if traced {
			out, r, man, d, err = tracedStudyOp(rec, op, seed, c.jobs)
		} else {
			s := time.Now()
			out, r, man, err = studyOp(seed, c.jobs)
			d = time.Since(s)
		}
		if err == nil {
			err = oracle.check(seed, out, man)
		}
		if err != nil {
			o.failed++
			o.correct = false
			if len(failures) < 5 {
				failures = append(failures, err.Error())
			}
			continue
		}
		if traced {
			tracedLat = append(tracedLat, durMs(d))
			cacheHit += r.Study.Embed.CacheStats().HitRate()
			continue
		}
		lat = append(lat, durMs(d))
	}
	wall := time.Since(t0)
	cpu := selfCPU() - cpu0
	rss, err := peakRSSMiB("self")
	if err != nil {
		return nil, err
	}
	completed := len(lat) + len(tracedLat)
	if completed == 0 {
		return nil, fmt.Errorf("no study completed: %v", failures)
	}
	sum := summarize(lat, 0.90)
	o.metrics["setup_s"] = quantile(setups, 0.5)
	o.metrics["lat_p50_ms"] = sum.P50
	o.metrics["lat_tail_ms"] = sum.Tail
	o.metrics["capacity_rps"] = float64(completed) / wall.Seconds()
	o.metrics["cpu_ms_per_op"] = durMs(cpu) / float64(completed)
	o.metrics["peak_rss_mb"] = rss
	o.report["study_seeds"] = seeds
	o.report["setup_s_samples"] = setups
	o.report["latency"] = sum
	o.report["failures"] = failures
	if c.trace {
		traced := summarize(tracedLat, tailQuantile(len(tracedLat)))
		o.report["latency_traced"] = traced
		n := float64(len(tracedLat))
		if n > 0 {
			o.metrics["embed.cache.hit_rate"] = cacheHit / n
			o.metrics["modelstore.hit_rate"] = rec.Count("modelstore.hit_rate.sum") / n
			o.metrics["trace.overhead_pct"] = (traced.P50/sum.P50 - 1) * 100
			studyLayerMetrics(rec, n, o.metrics)
		}
	}
	return o, nil
}

// tracedStudyOp runs one study like studyOp, recording a span around each
// real call (core.new = NewRunnerCtx, experiments.all = Runner.All), and
// after each call replays its children through their layers' public
// functions under it. The returned duration covers the real calls only.
func tracedStudyOp(rec *Recorder, op int, seed int64, jobs int) (string, *experiments.Runner, *fault.Manifest, time.Duration, error) {
	ctx, man := studyCtx(jobs)
	store := modelstore.From(ctx)
	root := rec.Begin(op, 0, "op")
	defer rec.End(root)

	s := time.Now()
	newID := rec.Begin(op, root, "core.new")
	r, err := experiments.NewRunnerCtx(ctx, &core.Config{Seed: seed, Jobs: jobs})
	rec.End(newID)
	d := time.Since(s)
	if err != nil {
		return "", nil, man, d, err
	}
	s = time.Now()
	allID := rec.Begin(op, root, "experiments.all")
	out, err := r.All()
	rec.End(allID)
	d += time.Since(s)
	if err != nil {
		return "", nil, man, d, err
	}
	rec.Add("modelstore.hit_rate.sum", store.Stats().HitRate())

	t := tracer{rec: rec, op: op}
	if err := t.replayCoreNew(newID, seed, jobs); err != nil {
		return "", nil, man, d, fmt.Errorf("replaying core.New: %w", err)
	}
	if err := t.replayAll(allID, r, jobs); err != nil {
		return "", nil, man, d, fmt.Errorf("replaying Runner.All: %w", err)
	}
	return out, r, man, d, nil
}

// tracer records spans of one operation.
type tracer struct {
	rec *Recorder
	op  int
}

// span runs fn under a span named name, parented to parent, and returns
// the span's ID and duration.
func (t tracer) span(parent int, name string, fn func()) (int, time.Duration) {
	s := time.Now()
	id := t.rec.Begin(t.op, parent, name)
	fn()
	t.rec.End(id)
	return id, time.Since(s)
}

// replayCoreNew replays the calls core.NewCtx makes, in the shape of its
// streaming DAG: embedding training, recovery training and the survey
// start at once; each snippet is prepared, then scored as soon as the
// embedding model is ready, on at most jobs workers; the expert panel
// runs last.
func (t tracer) replayCoreNew(parent int, seed int64, jobs int) error {
	ctx := par.WithJobs(context.Background(), jobs)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		em       *embed.Model
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	embedReady := make(chan struct{})
	wg.Add(3)
	go func() {
		defer wg.Done()
		defer close(embedReady)
		ctxs, err := corpus.EmbeddingContexts()
		if err != nil {
			fail(err)
			return
		}
		t.span(parent, "embed.train", func() { em, err = embed.TrainCtx(ctx, ctxs, &embed.Config{Dim: 24}) })
		if err != nil {
			fail(err)
		}
	}()
	go func() {
		defer wg.Done()
		files, err := corpus.TrainingFiles()
		if err != nil {
			fail(err)
			return
		}
		t.span(parent, "namerec.train", func() { _, err = namerec.TrainModelCtx(ctx, files) })
		if err != nil {
			fail(err)
		}
	}()
	go func() {
		defer wg.Done()
		var ds *survey.Dataset
		var err error
		t.span(parent, "survey.run", func() { ds, err = survey.RunCtx(ctx, &survey.Config{Seed: seed}) })
		if err != nil {
			fail(err)
			return
		}
		t.rec.Add("survey.participants", float64(len(ds.Participants)))
		t.rec.Add("survey.excluded", float64(len(ds.ExcludedIDs)))
	}()

	snips := corpus.Snippets()
	prepared := make([]*corpus.Prepared, len(snips))
	sem := make(chan struct{}, jobs)
	var snipWG sync.WaitGroup
	for i, sn := range snips {
		snipWG.Add(1)
		sem <- struct{}{}
		go func() {
			defer snipWG.Done()
			defer func() { <-sem }()
			p, err := t.prepare(ctx, parent, sn, opt.O0)
			if err != nil {
				fail(err)
				return
			}
			<-embedReady
			if em == nil {
				return
			}
			if err := t.evaluate(ctx, parent, p, em); err != nil {
				fail(err)
				return
			}
			prepared[i] = p
		}()
	}
	snipWG.Wait()
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	var sets []qualcode.PairSet
	for _, p := range prepared {
		sets = append(sets, qualcode.PairSet{SnippetID: p.Snippet.ID, NamePairs: p.Dirty.MetricPairs(), TypePairs: p.Dirty.TypePairs()})
	}
	var err error
	t.span(parent, "qualcode.panel", func() {
		_, err = qualcode.RatePanelCtx(ctx, sets, em, &qualcode.PanelConfig{Seed: seed})
	})
	return err
}

// evaluate replays the per-snippet metric battery and covariates.
func (t tracer) evaluate(ctx context.Context, parent int, p *corpus.Prepared, em *embed.Model) error {
	pairs := make([]metrics.Pair, 0, len(p.Dirty.Renames))
	for _, r := range p.Dirty.Renames {
		pairs = append(pairs, metrics.Pair{Candidate: r.NewName, Reference: r.OrigName})
	}
	t.rec.Add("metrics.pairs", float64(len(pairs)))
	var err error
	t.span(parent, "metrics.evaluate", func() {
		_, err = metrics.EvaluateCtx(ctx, pairs, p.Dirty.Source(), p.OrigSource, em)
	})
	if err != nil {
		return err
	}
	t.span(parent, "analysis.measure", func() { _ = analysis.MeasureCtx(ctx, p.IR) })
	return nil
}

// section is one artifact Runner.All renders, with the core analyses it
// calls.
type section struct {
	name    string
	render  func() (string, error)
	analyze func(t tracer, parent int) error
}

// replayAll replays Runner.All: every section renders on at most jobs
// workers, and each section's core analyses (and their model fits) are
// replayed under it.
func (t tracer) replayAll(parent int, r *experiments.Runner, jobs int) error {
	s := r.Study
	ctx := context.Background()
	call := func(name string, fn func() error) func(tracer, int) error {
		return func(t tracer, p int) error {
			var err error
			t.span(p, name, func() { err = fn() })
			return err
		}
	}
	sections := []section{
		{"fig1", r.Figure1, nil},
		{"fig2", r.Figure2, nil},
		{"fig3", r.Figure3, nil},
		{"table1", r.TableI, func(t tracer, p int) error {
			var res *mixed.Result
			var err error
			id, _ := t.span(p, "core.analyses", func() { res, err = s.AnalyzeCorrectnessCtx(ctx) })
			if err != nil {
				return err
			}
			return t.fitReplay(id, s.Dataset, true, res)
		}},
		{"fig4", r.Figure4, nil},
		{"fig5", r.Figure5, call("core.analyses", func() error { _, err := s.CorrectnessByQuestion(); return err })},
		{"table2", r.TableII, func(t tracer, p int) error {
			var res *mixed.Result
			var err error
			id, _ := t.span(p, "core.analyses", func() { res, err = s.AnalyzeTimingCtx(ctx) })
			if err != nil {
				return err
			}
			return t.fitReplay(id, s.Dataset, false, res)
		}},
		{"fig6", r.Figure6, call("core.analyses", func() error {
			hex, dirty, err := s.TimingGroups("BAPL", "", false)
			if err != nil {
				return err
			}
			_, err = htest.WelchT(hex, dirty, htest.TwoSided)
			return err
		})},
		{"fig7", r.Figure7, call("core.analyses", func() error { _, _, err := s.TimingGroups("", "AEEK-Q2", true); return err })},
		{"fig8", r.Figure8, call("core.analyses", func() error { _, err := s.AnalyzeOpinions(); return err })},
		{"metrics", func() (string, error) { return r.MetricReportTable(), nil }, nil},
		{"table3", r.TableIII, call("core.correlations", func() error { _, err := s.MetricCorrelations(); return err })},
		{"table4", r.TableIV, call("core.correlations", func() error { _, err := s.MetricCorrelations(); return err })},
		{"intext", r.InTextStats, func(t tracer, p int) error {
			if err := call("core.analyses", func() error { _, err := s.AnalyzeTrust(); return err })(t, p); err != nil {
				return err
			}
			return call("core.analyses", func() error { _, err := s.PerceptionVsPerformance(); return err })(t, p)
		}},
	}
	errs := make([]error, len(sections))
	sem := make(chan struct{}, jobs)
	var wg sync.WaitGroup
	for i, sec := range sections {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			var err error
			id, _ := t.span(parent, "artifact."+sec.name, func() { _, err = sec.render() })
			if err == nil && sec.analyze != nil {
				err = sec.analyze(t, id)
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// fitReplay refits the model a core analysis fitted, from a design built
// the way core builds it, and checks the refit matches the analysis.
func (t tracer) fitReplay(parent int, d *survey.Dataset, logistic bool, want *mixed.Result) error {
	rows := d.TimingRows()
	y := func(r survey.Response) float64 { return r.TimeSec }
	name := "mixed.lmm"
	if logistic {
		rows = d.CorrectnessRows()
		y = func(r survey.Response) float64 {
			if r.Correct {
				return 1
			}
			return 0
		}
		name = "mixed.glmm"
	}
	spec, err := studySpec(d, rows, y)
	if err != nil {
		return err
	}
	var res *mixed.Result
	t.span(parent, name, func() {
		if logistic {
			res, err = mixed.FitGLMMLogit(spec)
		} else {
			res, err = mixed.FitLMM(spec)
		}
	})
	if err != nil {
		return err
	}
	if res.String() != want.String() {
		return fmt.Errorf("%s refit differs from the study's fit", name)
	}
	t.rec.Add("mixed.fits", 1)
	if res.Converged {
		t.rec.Add("mixed.converged", 1)
	}
	return nil
}

// studySpec builds the paper's model formula (~ uses_DIRTY + Exp_Coding +
// Exp_RE + (1|user) + (1|question)) from dataset rows, as core does.
func studySpec(d *survey.Dataset, rows []survey.Response, response func(survey.Response) float64) (*mixed.Spec, error) {
	y := make([]float64, len(rows))
	design := make([][]float64, len(rows))
	for i, r := range rows {
		y[i] = response(r)
		dirty := 0.0
		if r.UsesDirty {
			dirty = 1
		}
		design[i] = []float64{1, dirty, r.ExpCoding, r.ExpRE}
	}
	x, err := linalg.NewMatrixFromRows(design)
	if err != nil {
		return nil, err
	}
	uidx, nu := d.UserIndex(rows)
	qidx, nq := d.QuestionIndex(rows)
	return &mixed.Spec{
		Response:   y,
		Fixed:      x,
		FixedNames: []string{"(Intercept)", "uses_DIRTY", "Exp_Coding", "Exp_RE"},
		Random: []mixed.RandomFactor{
			{Name: "user", Index: uidx, NLevels: nu},
			{Name: "question", Index: qidx, NLevels: nq},
		},
	}, nil
}

// studyLayerMetrics turns the traced study ops' spans into per-layer
// metrics: times and counts are per study (totals over n traced studies).
func studyLayerMetrics(rec *Recorder, n float64, m map[string]float64) {
	spans := rec.Spans()
	total, self := LayerTimes(spans)
	per := func(d time.Duration) float64 { return durMs(d) / n }
	for _, name := range []string{
		"mixed.glmm", "mixed.lmm", "core.new", "core.correlations", "core.analyses",
		"embed.train", "namerec.train", "survey.run", "metrics.evaluate", "qualcode.panel",
	} {
		m[name+".ms"] = per(total[name])
	}
	m["core.new.self_ms"] = per(self["core.new"])
	render := self["experiments.all"]
	for name, d := range self {
		if strings.HasPrefix(name, "artifact.") {
			render += d
		}
	}
	m["experiments.render.self_ms"] = per(render)
	m["experiments.critical_path_ms"] = criticalPath(spans) / n
	m["mixed.fits"] = rec.Count("mixed.fits") / n
	if fits := rec.Count("mixed.fits"); fits > 0 {
		m["mixed.converged_share"] = rec.Count("mixed.converged") / fits
	}
	m["survey.participants"] = rec.Count("survey.participants") / n
	m["survey.excluded"] = rec.Count("survey.excluded") / n
	m["metrics.pairs"] = rec.Count("metrics.pairs") / n
	pipelineLayerMetrics(rec, spans, n, m)
}

// criticalPath sums, over operations, core.new plus the longest artifact:
// the build must finish before any artifact renders, and All finishes with
// its slowest section.
func criticalPath(spans []Span) float64 {
	build := map[int]time.Duration{}
	longest := map[int]time.Duration{}
	for _, s := range spans {
		switch {
		case s.Name == "core.new":
			build[s.Op] += s.Dur()
		case strings.HasPrefix(s.Name, "artifact.") && s.Dur() > longest[s.Op]:
			longest[s.Op] = s.Dur()
		}
	}
	var total time.Duration
	ops := make([]int, 0, len(build))
	for op := range build {
		ops = append(ops, op)
	}
	sort.Ints(ops)
	for _, op := range ops {
		total += build[op] + longest[op]
	}
	return durMs(total)
}

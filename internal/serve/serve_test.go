package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"decompstudy/internal/compile/opt"
	"decompstudy/internal/core"
	"decompstudy/internal/corpus"
	"decompstudy/internal/experiments"
	"decompstudy/internal/fault"
	"decompstudy/internal/modelstore"
	"decompstudy/internal/obs"
	"decompstudy/internal/par"
)

// newTestServer builds a Server over an in-memory model store and wraps it
// in an httptest listener. Cleanup tears both down in drain order.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	o := &obs.Obs{Trace: obs.NewCollector(), Metrics: obs.NewRegistry()}
	srv, err := NewServer(context.Background(), o, modelstore.New(), opts)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return srv, hs
}

func post(t *testing.T, client *http.Client, url string, body string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, raw
}

// TestStudyEndpointByteIdenticalToCLI is the service↔CLI determinism
// contract: /v1/study at seed 26 must return exactly the bytes studysim
// prints — same Runner, same All() render, nothing added by transport.
func TestStudyEndpointByteIdenticalToCLI(t *testing.T) {
	_, hs := newTestServer(t, Options{})

	// The reference output, produced the way cmd/studysim does.
	ctx := fault.WithManifest(par.WithJobs(obs.With(context.Background(), &obs.Obs{}), runtime.GOMAXPROCS(0)), fault.NewManifest())
	r, err := experiments.NewRunnerCtx(ctx, &core.Config{Seed: 26, Jobs: runtime.GOMAXPROCS(0)})
	if err != nil {
		t.Fatalf("reference runner: %v", err)
	}
	want, err := r.All()
	if err != nil {
		t.Fatalf("reference All(): %v", err)
	}

	resp, got := post(t, hs.Client(), hs.URL+"/v1/study", `{"seed": 26}`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, got)
	}
	if sha256.Sum256(got) != sha256.Sum256([]byte(want)) {
		t.Fatalf("/v1/study output differs from the CLI render (%d vs %d bytes)", len(got), len(want))
	}

	// Single artifacts go through the same shared registry.
	resp, got = post(t, hs.Client(), hs.URL+"/v1/study", `{"seed": 26, "artifact": "table2"}`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("artifact status = %d, body %s", resp.StatusCode, got)
	}
	wantT2, err := r.TableII()
	if err != nil {
		t.Fatalf("reference TableII: %v", err)
	}
	if string(got) != wantT2 {
		t.Fatalf("table2 artifact differs from CLI render")
	}
}

func TestAnnotateMatchesDirectPrepare(t *testing.T) {
	_, hs := newTestServer(t, Options{})
	for _, id := range []string{"AEEK", "TC"} {
		resp, raw := post(t, hs.Client(), hs.URL+"/v1/annotate", fmt.Sprintf(`{"snippet": %q}`, id), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status = %d, body %s", id, resp.StatusCode, raw)
		}
		var got AnnotateResponse
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatalf("%s: bad JSON: %v", id, err)
		}
		sn, _ := corpus.SnippetByID(id)
		p, err := corpus.PrepareOptCtx(context.Background(), sn, opt.O0)
		if err != nil {
			t.Fatalf("%s: prepare: %v", id, err)
		}
		if got.Output != p.Dirty.Source() {
			t.Errorf("%s: annotated output differs from direct pipeline", id)
		}
		if len(got.Renames) != len(p.Dirty.Renames) {
			t.Errorf("%s: %d renames, want %d", id, len(got.Renames), len(p.Dirty.Renames))
		}
	}
}

func TestMetricsEndpointReportsBattery(t *testing.T) {
	_, hs := newTestServer(t, Options{})
	resp, raw := post(t, hs.Client(), hs.URL+"/v1/metrics", `{"snippet": "BAPL", "opt": 1}`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, raw)
	}
	var got MetricsResponse
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if got.Snippet != "BAPL" || got.Opt != "-O1" {
		t.Errorf("echo = %s/%s, want BAPL/-O1", got.Snippet, got.Opt)
	}
	if got.Pairs == 0 {
		t.Error("no rename pairs scored")
	}
	if got.Report.NormalizedLev <= 0 {
		t.Errorf("NormalizedLev = %v, want > 0", got.Report.NormalizedLev)
	}
	if got.Covariates.Cyclomatic <= 0 {
		t.Errorf("Cyclomatic = %d, want > 0", got.Covariates.Cyclomatic)
	}
}

func TestDecompileAndLintEndpoints(t *testing.T) {
	_, hs := newTestServer(t, Options{})

	resp, raw := post(t, hs.Client(), hs.URL+"/v1/decompile", `{"snippet": "AEEK", "annotate": true}`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decompile status = %d, body %s", resp.StatusCode, raw)
	}
	var dec DecompileResponse
	if err := json.Unmarshal(raw, &dec); err != nil || dec.Output == "" {
		t.Fatalf("decompile body = %s (err %v)", raw, err)
	}

	src := "int add(int a, int b) { return a + b; }"
	resp, raw = post(t, hs.Client(), hs.URL+"/v1/decompile", fmt.Sprintf(`{"source": %q}`, src), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("source decompile status = %d, body %s", resp.StatusCode, raw)
	}

	resp, raw = post(t, hs.Client(), hs.URL+"/v1/lint", `{"snippet": "POSTORDER", "opt": 2}`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("lint status = %d, body %s", resp.StatusCode, raw)
	}
	var lint LintResponse
	if err := json.Unmarshal(raw, &lint); err != nil {
		t.Fatalf("lint body: %v", err)
	}
	if len(lint.Covariates) == 0 {
		t.Error("lint returned no covariates")
	}
}

// TestNestingLimitIsA400 sends the body that used to end the process (a
// goroutine stack overflow while lowering 10^6 nested `!`): it must come
// back as a 400, be counted on /debug, and leave the server answering.
// A depth-260 nest, the deep end of the benchmark's tail, still decompiles.
func TestNestingLimitIsA400(t *testing.T) {
	_, hs := newTestServer(t, Options{})
	client := hs.Client()
	get := func(path string) (int, string) {
		resp, err := client.Get(hs.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(raw)
	}

	src := "int f(int a){ return " + strings.Repeat("!", 1_000_000) + "a; }"
	resp, raw := post(t, client, hs.URL+"/v1/decompile", fmt.Sprintf(`{"source": %q}`, src), nil)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), "nesting") {
		t.Fatalf("10^6 nots: status %d, body %.300s", resp.StatusCode, raw)
	}
	if code, body := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz after the rejection = %d %s", code, body)
	}
	if _, body := get("/debug/metrics?format=json"); !strings.Contains(body, "csrc.parse.limit_rejects") {
		t.Errorf("debug metrics missing csrc.parse.limit_rejects: %.300s", body)
	}

	var nest strings.Builder
	nest.WriteString("long nest(int a, int b) {\n  long x = b;\n")
	for d := 0; d < 260; d++ {
		fmt.Fprintf(&nest, "  if (a > %d) {\n  x = x + %d;\n", d, 1+d%9)
	}
	nest.WriteString(strings.Repeat("  }\n", 260) + "  return x;\n}\n")
	resp, raw = post(t, client, hs.URL+"/v1/decompile", fmt.Sprintf(`{"source": %q, "opt": 2}`, nest.String()), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("depth-260 nest: status %d, body %.300s", resp.StatusCode, raw)
	}
}

// TestConcurrentResponsesMatchDirectCompute is the bytes contract under
// concurrency: the same four requests, sent at once so they compete for
// the pipeline's slots, each come back byte-equal to the snippet prepared
// directly in-process and encoded the way the handler encodes it.
func TestConcurrentResponsesMatchDirectCompute(t *testing.T) {
	srv, hs := newTestServer(t, Options{Queue: DefaultQueue})
	reqs := []struct {
		path, body, snippet string
		level               opt.Level
	}{
		{"/v1/annotate", `{"snippet": "AEEK"}`, "AEEK", opt.O0},
		{"/v1/annotate", `{"snippet": "POSTORDER", "opt": 2}`, "POSTORDER", opt.O2},
		{"/v1/metrics", `{"snippet": "TC"}`, "TC", opt.O0},
		{"/v1/metrics", `{"snippet": "BAPL", "opt": 1}`, "BAPL", opt.O1},
	}
	bodies := make([][]byte, len(reqs))
	var wg sync.WaitGroup
	for i, rq := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, raw := post(t, hs.Client(), hs.URL+rq.path, rq.body, nil)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s %s: status = %d, body %s", rq.path, rq.body, resp.StatusCode, raw)
			}
			bodies[i] = raw
		}(i)
	}
	wg.Wait()
	for i, rq := range reqs {
		ctx := par.WithJobs(fault.WithManifest(srv.base, fault.NewManifest()), 1)
		sn, _ := corpus.SnippetByID(rq.snippet)
		p, err := corpus.PrepareOptCtx(ctx, sn, rq.level)
		if err != nil {
			t.Fatalf("%s %s: direct prepare: %v", rq.path, rq.body, err)
		}
		var v any = annotateResponseFrom(p)
		if rq.path == "/v1/metrics" {
			if v, err = srv.metricsResponseFrom(ctx, p); err != nil {
				t.Fatalf("%s %s: direct metrics: %v", rq.path, rq.body, err)
			}
		}
		want := httptest.NewRecorder()
		writeJSON(want, http.StatusOK, v)
		if !bytes.Equal(bodies[i], want.Body.Bytes()) {
			t.Errorf("%s %s: concurrent body differs from the direct computation", rq.path, rq.body)
		}
	}
}

// TestSaturationReturns503 drives an overloaded server and requires every
// response to be either a success or a complete 503 JSON body with
// Retry-After — never a hang, never a partial body.
func TestSaturationReturns503(t *testing.T) {
	delayPlan := "seed=1; csrc.parse:delay,p=1,delay=200ms"
	opts := Options{Jobs: 1, Queue: 1, AllowFaultHeader: true}
	// "batched": a burst of concurrent annotates, more than one slot and
	// one queue place can hold.
	t.Run("batched", func(t *testing.T) {
		_, hs := newTestServer(t, opts)
		client := hs.Client()
		client.Timeout = 30 * time.Second

		const n = 8
		var wg sync.WaitGroup
		codes := make([]int, n)
		bodies := make([][]byte, n)
		retryAfter := make([]string, n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resp, raw := post(t, client, hs.URL+"/v1/annotate", `{"snippet": "AEEK"}`,
					map[string]string{"X-Fault-Plan": delayPlan})
				codes[i] = resp.StatusCode
				bodies[i] = raw
				retryAfter[i] = resp.Header.Get("Retry-After")
			}(i)
		}
		wg.Wait()

		saturated := 0
		for i := 0; i < n; i++ {
			switch codes[i] {
			case http.StatusOK:
				var ok AnnotateResponse
				if err := json.Unmarshal(bodies[i], &ok); err != nil {
					t.Errorf("request %d: 200 with unparseable body: %v", i, err)
				}
			case http.StatusServiceUnavailable:
				saturated++
				checkShed(t, fmt.Sprintf("request %d", i), retryAfter[i], bodies[i])
			default:
				t.Errorf("request %d: unexpected status %d: %s", i, codes[i], bodies[i])
			}
		}
		if saturated == 0 {
			t.Error("no request was shed: saturation path untested")
		}
	})
}

// checkShed requires a 503 to carry Retry-After and a complete JSON error
// body.
func checkShed(t *testing.T, what, retryAfter string, body []byte) {
	t.Helper()
	if retryAfter == "" {
		t.Errorf("%s: 503 without Retry-After", what)
	}
	var e map[string]string
	if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
		t.Errorf("%s: 503 body incomplete: %s", what, body)
	}
}

// TestOneAdmissionPath: annotate and lint compete for the same pipeline
// slots. Two delayed annotates take the only slot and the only queue
// place, so a lint request arriving behind them is shed with a 503 while
// both annotates still complete.
func TestOneAdmissionPath(t *testing.T) {
	srv, hs := newTestServer(t, Options{Jobs: 1, Queue: 1, AllowFaultHeader: true})
	client := hs.Client()
	client.Timeout = 30 * time.Second

	var wg sync.WaitGroup
	codes := make([]int, 2)
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _ := post(t, client, hs.URL+"/v1/annotate", `{"snippet": "AEEK"}`,
				map[string]string{"X-Fault-Plan": "seed=1; csrc.parse:delay,p=1,delay=500ms"})
			codes[i] = resp.StatusCode
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for srv.pipeline.InFlight() != 1 || srv.pipeline.waiting.Load() != 1 {
		if time.Now().After(deadline) {
			wg.Wait()
			t.Fatalf("annotate never held the pipeline: %d in flight, %d waiting",
				srv.pipeline.InFlight(), srv.pipeline.waiting.Load())
		}
		time.Sleep(time.Millisecond)
	}

	resp, raw := post(t, client, hs.URL+"/v1/lint", `{"snippet": "AEEK"}`, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("lint behind a full pipeline: status %d, body %s", resp.StatusCode, raw)
	}
	checkShed(t, "lint", resp.Header.Get("Retry-After"), raw)
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Errorf("annotate %d: status %d, want 200", i, code)
		}
	}
}

// TestZeroQueueShedsAtOnce: a zero Queue is no waiting room. With the
// only slot held by a delayed annotate, the next pipeline request is shed
// with a 503 long before that slot frees, while a request naming an
// unknown snippet is still answered 400: validation comes before
// admission.
func TestZeroQueueShedsAtOnce(t *testing.T) {
	const delay = 2 * time.Second
	srv, hs := newTestServer(t, Options{Jobs: 1, AllowFaultHeader: true})
	client := hs.Client()
	client.Timeout = 30 * time.Second

	done := make(chan int, 1)
	go func() {
		resp, _ := post(t, client, hs.URL+"/v1/annotate", `{"snippet": "AEEK"}`,
			map[string]string{"X-Fault-Plan": fmt.Sprintf("seed=1; csrc.parse:delay,p=1,delay=%s", delay)})
		done <- resp.StatusCode
	}()
	deadline := time.Now().Add(10 * time.Second)
	for srv.pipeline.InFlight() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("the delayed annotate never took the slot")
		}
		time.Sleep(time.Millisecond)
	}

	start := time.Now()
	resp, raw := post(t, client, hs.URL+"/v1/metrics", `{"snippet": "TC"}`, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("metrics behind a busy slot and no queue: status %d, body %s", resp.StatusCode, raw)
	}
	checkShed(t, "metrics", resp.Header.Get("Retry-After"), raw)
	if waited := time.Since(start); waited >= delay/2 {
		t.Errorf("the 503 took %s: it waited for the slot", waited)
	}
	resp, raw = post(t, client, hs.URL+"/v1/decompile", `{"snippet": "NOPE"}`, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown snippet behind a busy slot: status %d, body %s", resp.StatusCode, raw)
	}
	if code := <-done; code != http.StatusOK {
		t.Errorf("the delayed annotate: status %d, want 200", code)
	}
}

func TestFaultHeaderGating(t *testing.T) {
	_, locked := newTestServer(t, Options{})
	resp, raw := post(t, locked.Client(), locked.URL+"/v1/annotate", `{"snippet": "AEEK"}`,
		map[string]string{"X-Fault-Plan": "seed=1; csrc.parse:error,p=1"})
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("disabled header status = %d, body %s", resp.StatusCode, raw)
	}

	_, open := newTestServer(t, Options{AllowFaultHeader: true})
	resp, raw = post(t, open.Client(), open.URL+"/v1/annotate", `{"snippet": "AEEK"}`,
		map[string]string{"X-Fault-Plan": "not a plan"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid plan status = %d, body %s", resp.StatusCode, raw)
	}
	resp, raw = post(t, open.Client(), open.URL+"/v1/annotate", `{"snippet": "AEEK"}`,
		map[string]string{"X-Fault-Plan": "seed=1; csrc.parse:error,p=1"})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("armed error plan status = %d, body %s", resp.StatusCode, raw)
	}
	var e map[string]string
	if err := json.Unmarshal(raw, &e); err != nil || e["error"] == "" {
		t.Fatalf("fault error body incomplete: %s", raw)
	}
	// The same request without the header is unaffected: injector state is
	// per-request.
	resp, _ = post(t, open.Client(), open.URL+"/v1/annotate", `{"snippet": "AEEK"}`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("clean request after fault = %d", resp.StatusCode)
	}
}

func TestRequestValidation(t *testing.T) {
	_, hs := newTestServer(t, Options{})
	client := hs.Client()

	for _, tc := range []struct {
		name, path, body string
		want             int
		msg              string // a substring of the error, when pinned
	}{
		{"bad json", "/v1/annotate", `{"snippet":`, http.StatusBadRequest, ""},
		{"unknown field", "/v1/annotate", `{"snipet": "AEEK"}`, http.StatusBadRequest, ""},
		{"unknown snippet", "/v1/annotate", `{"snippet": "NOPE"}`, http.StatusBadRequest, ""},
		{"bad opt", "/v1/metrics", `{"snippet": "AEEK", "opt": 9}`, http.StatusBadRequest, ""},
		{"both inputs", "/v1/decompile", `{"snippet": "AEEK", "source": "int f() {}"}`, http.StatusBadRequest, ""},
		{"neither input", "/v1/lint", `{}`, http.StatusBadRequest, ""},
		{"bad artifact", "/v1/study", `{"artifact": "tableX"}`, http.StatusBadRequest, ""},
		{"unknown snippet to decompile", "/v1/decompile", `{"snippet": "NOPE"}`, http.StatusBadRequest, `unknown snippet \"NOPE\"`},
		{"func matches nothing", "/v1/decompile", `{"source": "int f(int a) { return a; }", "func": "g"}`,
			http.StatusBadRequest, `no function matched \"g\"`},
	} {
		resp, raw := post(t, client, hs.URL+tc.path, tc.body, nil)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d (body %s)", tc.name, resp.StatusCode, tc.want, raw)
		}
		if !strings.Contains(string(raw), tc.msg) {
			t.Errorf("%s: body %s, want it to contain %s", tc.name, raw, tc.msg)
		}
	}

	resp, err := client.Get(hs.URL + "/v1/annotate")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d, want 405", resp.StatusCode)
	}
}

func TestHealthzAndDebugSurface(t *testing.T) {
	srv, hs := newTestServer(t, Options{})
	client := hs.Client()

	get := func(path string) (*http.Response, []byte) {
		resp, err := client.Get(hs.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp, raw
	}

	resp, raw := get("/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(raw), "ok") {
		t.Fatalf("healthz = %d %s", resp.StatusCode, raw)
	}

	// A request lands per-endpoint metrics on the debug surface.
	post(t, client, hs.URL+"/v1/annotate", `{"snippet": "AEEK"}`, nil)
	resp, raw = get("/debug/metrics?format=json")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug metrics = %d", resp.StatusCode)
	}
	if !strings.Contains(string(raw), "serve.request") {
		t.Errorf("debug metrics missing serve.request series: %.200s", raw)
	}
	resp, _ = get("/debug/health")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("debug health = %d", resp.StatusCode)
	}

	srv.SetDraining()
	resp, raw = get("/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(raw), "draining") {
		t.Fatalf("draining healthz = %d %s", resp.StatusCode, raw)
	}
}

// TestNoGoroutineLeakAfterDrain exercises the server — including the
// saturation path — then tears it down and requires the goroutine count
// to return to baseline: nothing hangs in a limiter queue.
func TestNoGoroutineLeakAfterDrain(t *testing.T) {
	baseline := runtime.NumGoroutine()

	o := &obs.Obs{Trace: obs.NewCollector(), Metrics: obs.NewRegistry()}
	srv, err := NewServer(context.Background(), o, modelstore.New(), Options{Jobs: 2, Queue: 2, AllowFaultHeader: true})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	hs := httptest.NewServer(srv.Handler())
	client := hs.Client()

	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			hdr := map[string]string{}
			if i%3 == 0 {
				hdr["X-Fault-Plan"] = "seed=1; csrc.parse:delay,p=1,delay=50ms"
			}
			post(t, client, hs.URL+"/v1/annotate", `{"snippet": "BAPL"}`, hdr)
		}(i)
	}
	wg.Wait()

	hs.Close()
	srv.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

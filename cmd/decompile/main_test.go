package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"testing"
	"time"

	"decompstudy/internal/modelstore"
	"decompstudy/internal/obs"
	"decompstudy/internal/serve"
)

// TestBadFaultPlanLeavesNothingRunning: an invalid -faults plan exits 2
// before the CPU profile or the /debug server starts, so neither outlives
// the run and a second in-process run can profile.
func TestBadFaultPlanLeavesNothingRunning(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-cpuprofile", filepath.Join(t.TempDir(), "cpu.out"),
		"-debug-addr", addr,
		"-faults", "nonsense!!",
		"-snippet", "AEEK",
	}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("exit = %d, want 2; stderr: %s", code, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout = %q, want nothing on a usage error", stdout.String())
	}
	if err := pprof.StartCPUProfile(&bytes.Buffer{}); err != nil {
		t.Errorf("CPU profile left running: %v", err)
	} else {
		pprof.StopCPUProfile()
	}
	if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		c.Close()
		t.Errorf("/debug listener left running on %s", addr)
	}
}

// TestFaultRunPrintsManifest: a transient fault plan retries, prints the
// run manifest to stderr, and leaves stdout byte-identical to a clean run.
func TestFaultRunPrintsManifest(t *testing.T) {
	var clean, cleanErr bytes.Buffer
	if code := run([]string{"-snippet", "AEEK", "-annotate"}, &clean, &cleanErr); code != 0 {
		t.Fatalf("clean run exit = %d; stderr: %s", code, cleanErr.String())
	}
	if cleanErr.Len() != 0 {
		t.Errorf("clean run wrote to stderr: %q", cleanErr.String())
	}

	var stdout, stderr bytes.Buffer
	code := run([]string{"-snippet", "AEEK", "-annotate",
		"-faults", "seed=1; csrc.parse:error,transient,max=1"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("faulted run exit = %d; stderr: %s", code, stderr.String())
	}
	if !bytes.Equal(stdout.Bytes(), clean.Bytes()) {
		t.Errorf("stdout under a transient plan differs from the clean run:\n%s\nvs\n%s", stdout.String(), clean.String())
	}
	for _, want := range []string{"Run manifest", "transient retries: 1", "csrc.parse|AEEK"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr missing %q:\n%s", want, stderr.String())
		}
	}
}

// TestServedSourceDecompileMatchesCLI: /v1/decompile on a source and the
// decompile CLI on the same file print the same bytes, for every
// lintdemo file at every optimization level, plain, annotated, as IR and
// filtered to one function.
func TestServedSourceDecompileMatchesCLI(t *testing.T) {
	srv, err := serve.NewServer(context.Background(), &obs.Obs{}, modelstore.New(), serve.Options{})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer srv.Close()
	defer hs.Close()
	cache := t.TempDir()

	demos := map[string]string{"clean.c": "sum_range", "dirty.c": "uninit_read"}
	for file, fn := range demos {
		path := filepath.Join("..", "..", "examples", "lintdemo", file)
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for level := 0; level <= 2; level++ {
			for _, mode := range []struct {
				name  string
				flags []string
				req   serve.DecompileRequest
			}{
				{"plain", nil, serve.DecompileRequest{}},
				{"annotate", []string{"-annotate"}, serve.DecompileRequest{Annotate: true}},
				{"ir", []string{"-ir"}, serve.DecompileRequest{IR: true}},
				{"func", []string{"-func", fn}, serve.DecompileRequest{Func: fn}},
			} {
				what := fmt.Sprintf("%s -opt %d %s", file, level, mode.name)
				args := append([]string{"-model-cache", cache, "-opt", strconv.Itoa(level)}, mode.flags...)
				var stdout, stderr bytes.Buffer
				if code := run(append(args, path), &stdout, &stderr); code != 0 {
					t.Fatalf("%s: CLI exit = %d; stderr: %s", what, code, stderr.String())
				}

				req := mode.req
				req.Source, req.Opt = string(src), level
				body, _ := json.Marshal(req)
				resp, err := hs.Client().Post(hs.URL+"/v1/decompile", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				var got serve.DecompileResponse
				err = json.NewDecoder(resp.Body).Decode(&got)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || err != nil {
					t.Fatalf("%s: status %d, decode error %v", what, resp.StatusCode, err)
				}
				if got.Output != stdout.String() {
					t.Errorf("%s: served output differs from the CLI\n-- served --\n%s-- CLI --\n%s", what, got.Output, stdout.String())
				}
			}
		}
	}
}

// TestFuncMatchingNothingExitsOne: a -func filter that names no function
// of the file is an error, not an empty success.
func TestFuncMatchingNothingExitsOne(t *testing.T) {
	path := filepath.Join(t.TempDir(), "add.c")
	if err := os.WriteFile(path, []byte("int add(int a, int b) { return a + b; }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-func", "nosuch", path}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout = %q, want nothing", stdout.String())
	}
	if want := `decompile: no function matched "nosuch"`; !strings.Contains(stderr.String(), want) {
		t.Errorf("stderr = %q, want %q", stderr.String(), want)
	}
}

package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"decompstudy/internal/obs"
	"decompstudy/internal/serve"
)

// loadArgs is a short closed-loop run with the default mix.
func loadArgs(hs *httptest.Server) []string {
	return []string{"-addr", hs.Listener.Addr().String(), "-duration", "300ms", "-conns", "2", "-warmup", "0"}
}

func TestCleanRunAgainstServerExitsZero(t *testing.T) {
	srv, err := serve.NewServer(context.Background(), &obs.Obs{}, serve.Options{Queue: serve.DefaultQueue})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer srv.Close()
	defer hs.Close()

	var stdout, stderr bytes.Buffer
	if code := run(loadArgs(hs), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	report := stdout.String()
	if !strings.Contains(report, `"errors": 0,`) {
		t.Fatalf(`report lacks the "errors": 0, line the serve smoke greps:\n%s`, report)
	}
	if strings.Contains(report, `"requests": 0,`) {
		t.Fatalf("no request completed:\n%s", report)
	}
}

func TestFailedOrTruncatedResponsesExitOne(t *testing.T) {
	for name, h := range map[string]http.HandlerFunc{
		"status 500": func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "boom", http.StatusInternalServerError)
		},
		"truncated body": func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Length", "100")
			w.Write([]byte(`{"output": "`))
		},
	} {
		t.Run(name, func(t *testing.T) {
			hs := httptest.NewServer(h)
			defer hs.Close()
			var stdout, stderr bytes.Buffer
			if code := run(loadArgs(hs), &stdout, &stderr); code != 1 {
				t.Fatalf("exit %d, want 1; report:\n%s", code, stdout.String())
			}
			if strings.Contains(stdout.String(), `"errors": 0,`) {
				t.Fatalf("errors went uncounted:\n%s", stdout.String())
			}
		})
	}
}

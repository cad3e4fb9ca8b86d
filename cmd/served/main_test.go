package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestSIGTERMRightAfterDiscoveryDrains: the signal handler is installed
// before the address line is printed, so a SIGTERM sent the moment a
// client reads that line drains the server (exit 0, "drained") instead of
// killing the process.
func TestSIGTERMRightAfterDiscoveryDrains(t *testing.T) {
	pr, pw := io.Pipe()
	var stderr bytes.Buffer
	done := make(chan int, 1)
	go func() {
		code := run([]string{"-addr", "127.0.0.1:0", "-drain-timeout", "5s"}, pw, &stderr)
		pw.Close()
		done <- code
	}()

	line, err := bufio.NewReader(pr).ReadString('\n')
	if err != nil {
		t.Fatalf("reading the address line: %v (exit %d, stderr: %s)", err, <-done, stderr.String())
	}
	if !strings.HasPrefix(line, "served: listening on http://127.0.0.1:") {
		t.Fatalf("first stdout line = %q, want the listening address", line)
	}
	go io.Copy(io.Discard, pr)
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	select {
	case code := <-done:
		if code != 0 {
			t.Errorf("exit = %d, want 0; stderr: %s", code, stderr.String())
		}
		if !strings.Contains(stderr.String(), "served: drained") {
			t.Errorf("stderr missing the drain notice:\n%s", stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("served did not drain within 30s of SIGTERM")
	}
}

// TestBadLogLevelExitsTwo: the shared log-level parsing rejects unknown
// levels before any model trains.
func TestBadLogLevelExitsTwo(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-log-level", "loud"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit = %d, want 2; stderr: %s", code, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout = %q, want nothing", stdout.String())
	}
}

// TestNegativeFlagsExitTwo: a negative concurrency or queue depth is a
// usage error, reported before any model trains.
func TestNegativeFlagsExitTwo(t *testing.T) {
	for _, flag := range []string{"-jobs", "-queue", "-study-concurrency", "-study-queue"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{flag, "-1"}, &stdout, &stderr); code != 2 {
			t.Errorf("%s -1: exit = %d, want 2; stderr: %s", flag, code, stderr.String())
		}
		if stdout.Len() != 0 || !strings.Contains(stderr.String(), "must not be negative") {
			t.Errorf("%s -1: stdout %q, stderr %q", flag, stdout.String(), stderr.String())
		}
	}
}

// TestQueueZeroShedsAtOnce: `-queue 0` is no waiting room, not the
// default depth. While a delayed annotate holds the only slot, the next
// request is answered 503 at once.
func TestQueueZeroShedsAtOnce(t *testing.T) {
	pr, pw := io.Pipe()
	var stderr bytes.Buffer
	done := make(chan int, 1)
	go func() {
		code := run([]string{"-addr", "127.0.0.1:0", "-jobs", "1", "-queue", "0", "-allow-fault-header", "-drain-timeout", "10s"}, pw, &stderr)
		pw.Close()
		done <- code
	}()
	line, err := bufio.NewReader(pr).ReadString('\n')
	if err != nil {
		t.Fatalf("reading the address line: %v (exit %d, stderr: %s)", err, <-done, stderr.String())
	}
	go io.Copy(io.Discard, pr)
	url := strings.TrimSpace(strings.TrimPrefix(line, "served: listening on "))
	post := func(hdr string) (int, time.Duration) {
		req, _ := http.NewRequest(http.MethodPost, url+"v1/annotate", strings.NewReader(`{"snippet": "AEEK"}`))
		if hdr != "" {
			req.Header.Set("X-Fault-Plan", hdr)
		}
		start := time.Now()
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Errorf("POST: %v", err)
			return 0, 0
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, time.Since(start)
	}

	// The probe is sent once the delayed annotate has had time to take
	// the slot. With no waiting room, whichever of the two comes second
	// is shed; when the probe won the race, try again.
	const delay = 2 * time.Second
	plan := fmt.Sprintf("seed=1; csrc.parse:delay,p=1,delay=%s", delay)
	shed := false
	for attempt := 0; attempt < 5 && !shed; attempt++ {
		held := make(chan int, 1)
		go func() {
			code, _ := post(plan)
			held <- code
		}()
		time.Sleep(200 * time.Millisecond)
		code, took := post("")
		switch code {
		case http.StatusServiceUnavailable:
			shed = true
			if took >= delay/2 {
				t.Errorf("the 503 took %s: it waited for the slot", took)
			}
			if code := <-held; code != http.StatusOK {
				t.Errorf("the delayed annotate: status %d, want 200", code)
			}
		case http.StatusOK:
			<-held
		default:
			t.Errorf("probe: status %d", code)
			<-held
		}
	}
	if !shed {
		t.Error("no request was shed behind a busy slot with -queue 0")
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Errorf("exit = %d, want 0; stderr: %s", code, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("served did not drain within 30s of SIGTERM")
	}
}

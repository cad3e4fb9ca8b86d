package main

import (
	"bufio"
	"bytes"
	"io"
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

package main

import (
	"bytes"
	"net"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
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

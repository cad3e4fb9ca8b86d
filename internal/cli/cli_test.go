package cli

import (
	"bytes"
	"context"
	"flag"
	"net"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"decompstudy/internal/fault"
	"decompstudy/internal/modelstore"
	"decompstudy/internal/obs"
)

// setup registers every group on a fresh flag set, parses args, and runs
// Setup.
func setup(t *testing.T, args ...string) (context.Context, func(int) int, int, *bytes.Buffer) {
	t.Helper()
	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	cf := Register(fs, Obs|Faults|ModelCache)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %q: %v", args, err)
	}
	var stderr bytes.Buffer
	ctx, finish, code := cf.Setup(&stderr)
	return ctx, finish, code, &stderr
}

// freeAddr returns a loopback address nothing listens on.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// assertNothingRunning checks that no CPU profile and no /debug listener
// outlived a run.
func assertNothingRunning(t *testing.T, debugAddr string) {
	t.Helper()
	if err := pprof.StartCPUProfile(&bytes.Buffer{}); err != nil {
		t.Errorf("CPU profile still running: %v", err)
	} else {
		pprof.StopCPUProfile()
	}
	if c, err := net.DialTimeout("tcp", debugAddr, time.Second); err == nil {
		c.Close()
		t.Errorf("/debug listener on %s still accepts connections", debugAddr)
	}
}

// TestInvalidFlagsStartNothing: every flag is validated before the CPU
// profile or the /debug server starts, so a usage error exits 2 and
// leaves nothing running — a second run in the same process can profile.
func TestInvalidFlagsStartNothing(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"bad faults", []string{"-faults", "nonsense!!"}, "fault"},
		{"bad log level", []string{"-log-level", "loud"}, "loud"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr := freeAddr(t)
			args := append([]string{"-cpuprofile", filepath.Join(t.TempDir(), "cpu.out"), "-debug-addr", addr}, tc.args...)
			_, finish, code, stderr := setup(t, args...)
			if code != 2 || finish != nil {
				t.Fatalf("Setup(%q) = code %d, finish set %v; want 2 and no finish", args, code, finish != nil)
			}
			if msg := stderr.String(); !strings.HasPrefix(msg, "tool: ") || !strings.Contains(msg, tc.want) {
				t.Errorf("stderr = %q, want a tool:-prefixed error naming %q", msg, tc.want)
			}
			if strings.Contains(stderr.String(), "listening") {
				t.Errorf("debug server started before validation: %q", stderr.String())
			}
			assertNothingRunning(t, addr)
		})
	}
}

// TestStartFailureStopsWhatStarted: a CPU profile that cannot be created
// after the /debug server is up exits 1 and closes the server.
func TestStartFailureStopsWhatStarted(t *testing.T) {
	addr := freeAddr(t)
	bad := filepath.Join(t.TempDir(), "no", "such", "dir", "cpu.out")
	_, finish, code, stderr := setup(t, "-debug-addr", addr, "-cpuprofile", bad)
	if code != 1 || finish != nil {
		t.Fatalf("Setup = code %d, finish set %v; want 1 and no finish\nstderr: %s", code, finish != nil, stderr)
	}
	assertNothingRunning(t, addr)
}

// TestFinishTearsDownAndReports drives a full run: every artifact is
// written, the context carries the run's handles, and finish stops the
// profile and the server and prints the stats and the fault manifest.
func TestFinishTearsDownAndReports(t *testing.T) {
	dir := t.TempDir()
	addr := freeAddr(t)
	files := map[string]string{
		"-cpuprofile": filepath.Join(dir, "cpu.out"),
		"-memprofile": filepath.Join(dir, "mem.out"),
		"-trace":      filepath.Join(dir, "trace.json"),
	}
	args := []string{"-debug-addr", addr, "-stats", "-faults", "seed=1"}
	for flag, path := range files {
		args = append(args, flag, path)
	}
	ctx, finish, code, stderr := setup(t, args...)
	if code != 0 {
		t.Fatalf("Setup = %d, stderr: %s", code, stderr)
	}
	if st := modelstore.From(ctx); st == nil || st.Stats() != (modelstore.Stats{}) {
		t.Errorf("context store = %v, want a fresh in-process store", st)
	}
	if fault.ManifestFrom(ctx) == nil || fault.From(ctx) == nil {
		t.Error("context is missing the run manifest or the armed injector")
	}
	_, sp := obs.StartSpan(ctx, "work")
	sp.End()

	if got := finish(0); got != 0 {
		t.Fatalf("finish(0) = %d, stderr: %s", got, stderr)
	}
	for flag, path := range files {
		if info, err := os.Stat(path); err != nil || info.Size() == 0 {
			t.Errorf("%s %s not written: %v", flag, path, err)
		}
	}
	out := stderr.String()
	for _, want := range []string{"debug server listening", "Per-stage timing tree", "Metrics snapshot", "Run manifest"} {
		if !strings.Contains(out, want) {
			t.Errorf("stderr missing %q:\n%s", want, out)
		}
	}
	if strings.Index(out, "Metrics snapshot") > strings.Index(out, "Run manifest") {
		t.Error("the fault manifest must come after the -stats report")
	}
	assertNothingRunning(t, addr)
}

// TestFinishFoldsExitCode: a teardown failure turns success into exit 1
// but never masks the command's own failure code.
func TestFinishFoldsExitCode(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "no", "such", "dir", "trace.json")
	for _, tc := range []struct{ in, want int }{{0, 1}, {2, 2}} {
		_, finish, code, stderr := setup(t, "-trace", bad)
		if code != 0 {
			t.Fatalf("Setup = %d", code)
		}
		if got := finish(tc.in); got != tc.want {
			t.Errorf("finish(%d) with an unwritable trace = %d, want %d", tc.in, got, tc.want)
		}
		if !strings.Contains(stderr.String(), "tool: trace:") {
			t.Errorf("stderr = %q, want the trace failure reported", stderr)
		}
	}
}

// TestCleanRunIsQuiet: without -faults and with nothing excluded, finish
// prints nothing, and -no-model-cache leaves no store in the context.
func TestCleanRunIsQuiet(t *testing.T) {
	ctx, finish, code, stderr := setup(t, "-no-model-cache")
	if code != 0 {
		t.Fatalf("Setup = %d", code)
	}
	if modelstore.From(ctx) != nil {
		t.Error("-no-model-cache left a store in the context")
	}
	if got := finish(0); got != 0 || stderr.Len() != 0 {
		t.Errorf("finish(0) = %d, stderr %q; want 0 and nothing printed", got, stderr)
	}
}

// TestCollectForcesTelemetry: Collect gives the run a trace collector and
// metrics registry without any flag.
func TestCollectForcesTelemetry(t *testing.T) {
	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	cf := Register(fs, Obs)
	cf.Collect = true
	ctx, finish, code := cf.Setup(&bytes.Buffer{})
	if code != 0 {
		t.Fatalf("Setup = %d", code)
	}
	defer finish(0)
	if o := obs.From(ctx); o == nil || o.Trace == nil || o.Metrics == nil {
		t.Errorf("Collect did not attach a collector and registry: %+v", o)
	}
}

// TestRegisterGroups pins which flags each group adds.
func TestRegisterGroups(t *testing.T) {
	for _, tc := range []struct {
		groups Group
		want   string
	}{
		{Log, "log-level v"},
		{Log | ModelCache, "log-level no-model-cache v"},
		{Obs, "cpuprofile debug-addr debug-sample log-level memprofile stats trace v"},
		{Obs | Faults, "cpuprofile debug-addr debug-sample faults log-level memprofile retry-budget stats trace v"},
	} {
		fs := flag.NewFlagSet("tool", flag.ContinueOnError)
		Register(fs, tc.groups)
		var names []string
		fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
		if got := strings.Join(names, " "); got != tc.want {
			t.Errorf("Register(%b) flags = %q, want %q", tc.groups, got, tc.want)
		}
	}
}

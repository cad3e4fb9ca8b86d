package main

import (
	"bytes"
	"strings"
	"testing"

	"decompstudy/internal/experiments"
)

func TestUnknownArtifactListsValidNames(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-artifact", "bogus"}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("run(-artifact bogus) = %d, want exit code 2", code)
	}
	msg := stderr.String()
	if !strings.Contains(msg, `unknown artifact "bogus"`) {
		t.Errorf("stderr missing unknown-artifact notice: %q", msg)
	}
	// The error must enumerate every registered artifact.
	for _, name := range strings.Split(experiments.ArtifactNames(), ", ") {
		if !strings.Contains(msg, name) {
			t.Errorf("stderr missing valid artifact %q: %q", name, msg)
		}
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout should be empty on usage error, got %q", stdout.String())
	}
}

func TestUnknownArtifactFailsBeforePipeline(t *testing.T) {
	// The validation must run before the study pipeline: a bogus artifact
	// combined with a bogus export dir should still exit 2 without creating
	// anything.
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-artifact", "nope", "-export", t.TempDir() + "/x"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
}

func TestBadFlagExitsTwo(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-definitely-not-a-flag"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
}

func TestArtifactRegistryCoversDocumentedNames(t *testing.T) {
	want := []string{
		"table1", "table2", "table3", "table4",
		"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
		"intext", "metrics", "complexity", "ablations", "confound",
		"optlevels", "telemetry",
	}
	got := strings.Split(experiments.ArtifactNames(), ", ")
	if len(got) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(got), len(want))
	}
	for i, name := range want {
		if got[i] != name {
			t.Errorf("registry[%d] = %q, want %q", i, got[i], name)
		}
		if _, ok := experiments.LookupArtifact(name); !ok {
			t.Errorf("LookupArtifact(%q) not found", name)
		}
	}
}

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestSnippetOutputIsPinned: `nametool snippet AEEK` prints the renamings
// and the metric battery exactly as recorded in testdata, at -opt 0 and
// -opt 2 (where only the surviving renamings are scored).
func TestSnippetOutputIsPinned(t *testing.T) {
	for _, level := range []string{"0", "2"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-opt", level, "snippet", "AEEK"}, &stdout, &stderr); code != 0 {
			t.Fatalf("-opt %s: exit = %d; stderr: %s", level, code, stderr.String())
		}
		want, err := os.ReadFile(filepath.Join("testdata", "snippet_AEEK_O"+level+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(stdout.Bytes(), want) {
			t.Errorf("-opt %s: stdout differs from the recorded output\n-- got --\n%s-- want --\n%s", level, stdout.String(), want)
		}
	}
}

// TestUnknownSnippetExitsTwo: a snippet ID outside the study set is a
// usage error that names the bad ID and prints nothing to stdout.
func TestUnknownSnippetExitsTwo(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"snippet", "bogus"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit = %d, want 2; stderr: %s", code, stderr.String())
	}
	if stdout.Len() != 0 || !bytes.Contains(stderr.Bytes(), []byte(`unknown snippet "bogus"`)) {
		t.Errorf("stdout %q, stderr %q", stdout.String(), stderr.String())
	}
}

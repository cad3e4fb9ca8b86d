package main

import (
	"testing"

	"decompstudy/internal/compile"
	"decompstudy/internal/csrc"
)

func TestGeneratorIsDeterministic(t *testing.T) {
	a, err := GenerateSources(11, 60, nestedShare, "t")
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateSources(11, 60, nestedShare, "t")
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("unit %d differs between two runs of seed 11", i)
		}
	}
	c, err := GenerateSources(12, 60, nestedShare, "t")
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a {
		if a[i].Text == c[i].Text {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seeds 11 and 12 generated identical units")
	}
}

func TestGeneratedSourcesParseAndCompile(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		units, err := GenerateSources(seed, 200, nestedShare, "c")
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		nested := 0
		for i, u := range units {
			if seen[u.Text] {
				t.Fatalf("seed %d: unit %d repeats an earlier unit", seed, i)
			}
			seen[u.Text] = true
			file, err := csrc.Parse(u.Text, nil)
			if err != nil {
				t.Fatalf("seed %d unit %d: parse: %v\n%s", seed, i, err, u.Text)
			}
			if _, err := compile.Compile(file); err != nil {
				t.Fatalf("seed %d unit %d: compile: %v\n%s", seed, i, err, u.Text)
			}
			if u.Nested {
				nested++
				if u.Depth < nestMinDepth || u.Depth > nestMaxDepth {
					t.Errorf("seed %d unit %d: nested depth %d out of range", seed, i, u.Depth)
				}
				continue
			}
			if n := len(u.Text); n < genMinBytes || n > genMaxBytes+1500 {
				t.Errorf("seed %d unit %d: %d bytes, want about %d..%d", seed, i, n, genMinBytes, genMaxBytes)
			}
			if u.Depth > genMaxDepth {
				t.Errorf("seed %d unit %d: depth %d > %d", seed, i, u.Depth, genMaxDepth)
			}
		}
		if want := int(nestedShare * 200); nested != want {
			t.Errorf("seed %d: %d nested units, want %d", seed, nested, want)
		}
	}
}

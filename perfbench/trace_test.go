package main

import (
	"testing"
	"time"
)

const ms = time.Millisecond

// Two children that overlap for 5 ms cover 15 ms of a 20 ms parent, so the
// parent's self time is 5 ms. Summing the children (10 + 10) would leave 0.
func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "parent", Start: 0, End: 20 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 2 * ms, End: 12 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 7 * ms, End: 17 * ms},
	}
	self := SelfTimes(spans)
	if got := self[1]; got != 5*ms {
		t.Errorf("parent self = %v, want 5ms", got)
	}
	if self[2] != 10*ms || self[3] != 10*ms {
		t.Errorf("leaf self times = %v, %v, want 10ms each", self[2], self[3])
	}
}

// A child nested inside another child, and a disjoint third, all count
// once; grandchildren are charged to their own parent only.
func TestSelfTimeNestedAndDisjointChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "root", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "outer", Start: 10 * ms, End: 50 * ms},
		{ID: 3, Parent: 1, Name: "inner", Start: 20 * ms, End: 30 * ms},
		{ID: 4, Parent: 1, Name: "later", Start: 60 * ms, End: 70 * ms},
		{ID: 5, Parent: 2, Name: "grandchild", Start: 15 * ms, End: 45 * ms},
	}
	self := SelfTimes(spans)
	if got := self[1]; got != 50*ms {
		t.Errorf("root self = %v, want 50ms", got)
	}
	if got := self[2]; got != 10*ms {
		t.Errorf("outer self = %v, want 10ms", got)
	}
}

// Replayed children run after the call they replay; their union length is
// what is subtracted, and the result never goes negative.
func TestSelfTimeReplayedChildrenAndClamp(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "call", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Name: "x", Start: 10 * ms, End: 14 * ms},
		{ID: 3, Parent: 1, Name: "y", Start: 12 * ms, End: 16 * ms},
		{ID: 4, Name: "short", Start: 20 * ms, End: 21 * ms},
		{ID: 5, Parent: 4, Name: "long", Start: 21 * ms, End: 25 * ms},
	}
	self := SelfTimes(spans)
	if got := self[1]; got != 4*ms {
		t.Errorf("call self = %v, want 4ms", got)
	}
	if got := self[4]; got != 0 {
		t.Errorf("short self = %v, want clamp to 0", got)
	}
	total, selfByName := LayerTimes(spans)
	if total["x"] != 4*ms || selfByName["call"] != 4*ms {
		t.Errorf("LayerTimes = %v / %v", total, selfByName)
	}
}

func TestRecorderNilIsInert(t *testing.T) {
	var r *Recorder
	id := r.Begin(1, 0, "x")
	r.End(id)
	r.Add("n", 1)
	r.Max(1, "m", 2)
}

func TestRecorderSpansAndCounts(t *testing.T) {
	r := NewRecorder()
	p := r.Begin(7, 0, "parent")
	c := r.Begin(7, p, "child")
	r.End(c)
	open := r.Begin(7, p, "unfinished")
	_ = open
	r.End(p)
	r.Add("bytes", 3)
	r.Add("bytes", 4)
	r.Max(7, "lift", 2)
	r.Max(8, "lift", 5)
	r.Max(9, "lift", 1)
	spans := r.Spans()
	if len(spans) != 2 {
		t.Fatalf("closed spans = %d, want 2", len(spans))
	}
	if spans[1].Parent != p || spans[1].Op != 7 {
		t.Errorf("child span = %+v", spans[1])
	}
	if r.Count("bytes") != 7 {
		t.Errorf("count = %v, want 7", r.Count("bytes"))
	}
	if v, op := r.MaxOf("lift"); v != 5 || op != 8 {
		t.Errorf("max = %v@%d, want 5@8", v, op)
	}
}

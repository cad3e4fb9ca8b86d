package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer's public function, recorded from the
// benchmark side of the call. Spans of one benchmark operation share Op;
// Parent is the ID of the call that caused this one (0 for an operation's
// root). Start and End are offsets from the recorder's epoch.
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Op     int           `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Dur is the span's wall-clock duration.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Recorder keeps spans and per-layer counts in memory for the traced run;
// WriteFile writes them out when the run ends. A nil *Recorder records
// nothing, so untraced code paths call it unconditionally.
type Recorder struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []Span
	counts map[string]float64
	maxes  map[string]maxAt
}

// maxAt is the largest value seen for a name and the operation it came from.
type maxAt struct {
	v  float64
	op int
}

// NewRecorder starts an empty recorder whose clock starts now.
func NewRecorder() *Recorder {
	return &Recorder{epoch: time.Now(), counts: map[string]float64{}, maxes: map[string]maxAt{}}
}

// Begin opens a span and returns its ID; pass the ID to End, and as the
// parent of any call made on this span's behalf.
func (r *Recorder) Begin(op, parent int, name string) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return id
}

// End closes the span opened by Begin.
func (r *Recorder) End(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// Add accumulates a count recorded at a layer boundary (bytes parsed,
// instructions lowered, ...).
func (r *Recorder) Add(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counts[name] += v
	r.mu.Unlock()
}

// Max records v under name if it is the largest seen so far, remembering
// which operation produced it.
func (r *Recorder) Max(op int, name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if m, ok := r.maxes[name]; !ok || v > m.v {
		r.maxes[name] = maxAt{v: v, op: op}
	}
	r.mu.Unlock()
}

// Spans returns a copy of the closed spans.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// Count returns the accumulated count for name.
func (r *Recorder) Count(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counts[name]
}

// MaxOf returns the largest value recorded under name and its operation.
func (r *Recorder) MaxOf(name string) (float64, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.maxes[name]
	return m.v, m.op
}

// WriteFile writes every span as JSON to path.
func (r *Recorder) WriteFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	spans := r.Spans()
	r.mu.Lock()
	raw, err := json.Marshal(struct {
		Spans  []Span             `json:"spans"`
		Counts map[string]float64 `json:"counts"`
	}{spans, r.counts})
	r.mu.Unlock()
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return os.WriteFile(path, raw, 0o644)
}

// SelfTimes returns each span's self time: its duration minus the length
// of the union of its direct children's intervals, never below zero.
//
// Children are unioned, not summed: children that ran concurrently overlap,
// and summing them would charge the overlap twice (a parent with two fully
// parallel 10 ms children covers 10 ms, not 20). Replayed children run
// right after the call they replay rather than inside it; the union's
// length does not depend on where the intervals sit, so the subtraction
// still removes exactly the time the children need in the parent's
// concurrency shape.
func SelfTimes(spans []Span) map[int]time.Duration {
	kids := map[int][][2]time.Duration{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]time.Duration{s.Start, s.End})
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self := s.Dur() - unionLen(kids[s.ID])
		if self < 0 {
			self = 0
		}
		out[s.ID] = self
	}
	return out
}

// unionLen is the total length covered by the intervals.
func unionLen(iv [][2]time.Duration) time.Duration {
	if len(iv) == 0 {
		return 0
	}
	sorted := append([][2]time.Duration(nil), iv...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i][0] < sorted[j][0] })
	var total time.Duration
	cur := sorted[0]
	for _, x := range sorted[1:] {
		if x[0] > cur[1] {
			total += cur[1] - cur[0]
			cur = x
			continue
		}
		if x[1] > cur[1] {
			cur[1] = x[1]
		}
	}
	return total + cur[1] - cur[0]
}

// LayerTimes sums, per span name, the total duration and the total self
// time over all spans.
func LayerTimes(spans []Span) (total, self map[string]time.Duration) {
	selfByID := SelfTimes(spans)
	total = map[string]time.Duration{}
	self = map[string]time.Duration{}
	for _, s := range spans {
		total[s.Name] += s.Dur()
		self[s.Name] += selfByID[s.ID]
	}
	return total, self
}

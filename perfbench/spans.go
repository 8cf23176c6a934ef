package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one simulation run or one
// service job share Run; Parent is the id of the span that caused it (0 at
// the root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    string `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them out once, at the end of
// the traced run. A disabled tracer records nothing; end-to-end runs use
// one so that their timed paths carry no tracing cost.
type tracer struct {
	on    bool
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(name string, parent int, run string) int {
	if !t.on {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: run, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if !t.on || id == 0 {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return time.Duration(s.End - s.Start)
}

// timed runs f inside a span and returns its wall time, which is measured
// whether or not tracing is on.
func (t *tracer) timed(name string, parent int, run string, f func()) time.Duration {
	id := t.begin(name, parent, run)
	start := time.Now()
	f()
	d := time.Since(start)
	t.end(id)
	return d
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	raw, err := json.Marshal(map[string]any{"spans": t.spans, "self_ns": t.selfTimesLocked()})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// selfTimesLocked sums, per span name, each span's duration minus the part
// its direct children cover.
func (t *tracer) selfTimesLocked() map[string]int64 {
	self := map[string]int64{}
	for _, s := range t.spans {
		self[s.Name] += s.End - s.Start
		if s.Parent > 0 {
			self[t.spans[s.Parent-1].Name] -= s.End - s.Start
		}
	}
	return self
}

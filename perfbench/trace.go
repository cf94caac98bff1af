package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer: its name (layer.operation), the
// trace it belongs to (one cell, request or job), the span that caused
// it, its start and end in nanoseconds since the tracer was created, and
// the counts recorded at the same boundary.
type span struct {
	Name   string             `json:"name"`
	Trace  string             `json:"trace"`
	ID     int64              `json:"id"`
	Parent int64              `json:"parent,omitempty"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps every finished span in memory; writeSpans stores them
// when the run ends. A nil *tracer is the untraced pass: every method
// is a no-op, so instrumented code calls it unconditionally.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// openSpan is a started span; end records it.
type openSpan struct {
	t *tracer
	s span
}

// start opens a span under parent (nil for a root span of trace).
func (t *tracer) start(name, trace string, parent *openSpan) *openSpan {
	if t == nil {
		return nil
	}
	o := &openSpan{t: t, s: span{Name: name, Trace: trace, ID: t.ids.Add(1)}}
	if parent != nil {
		o.s.Parent = parent.s.ID
		if trace == "" {
			o.s.Trace = parent.s.Trace
		}
	}
	o.s.Start = int64(time.Since(t.t0))
	return o
}

// end closes the span with the counts measured at its boundary.
func (o *openSpan) end(counts map[string]float64) {
	if o != nil {
		o.endAs(o.s.Name, counts)
	}
}

// endAs closes the span under a name chosen once the call returned.
func (o *openSpan) endAs(name string, counts map[string]float64) {
	if o == nil {
		return
	}
	o.s.End = int64(time.Since(o.t.t0))
	o.s.Name = name
	o.s.Counts = counts
	o.t.add(o.s)
}

// add records a span measured elsewhere (another process's report,
// already shifted onto this tracer's clock).
func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// at converts a wall-clock instant into this tracer's span clock.
func (t *tracer) at(wall time.Time) int64 { return int64(wall.Sub(t.t0)) }

func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// spanSummary aggregates the spans of one name.
type spanSummary struct {
	n      int
	total  time.Duration
	counts map[string]float64
}

func (s spanSummary) meanMs() float64 {
	if s.n == 0 {
		return 0
	}
	return s.total.Seconds() * 1e3 / float64(s.n)
}

func (s spanSummary) meanUs() float64 { return s.meanMs() * 1e3 }

// summarize groups spans by name, summing durations and counts.
func summarize(spans []span) map[string]spanSummary {
	out := make(map[string]spanSummary)
	for _, s := range spans {
		sum := out[s.Name]
		sum.n++
		sum.total += s.dur()
		for k, v := range s.Counts {
			if sum.counts == nil {
				sum.counts = make(map[string]float64)
			}
			sum.counts[k] += v
		}
		out[s.Name] = sum
	}
	return out
}

// writeSpans stores a traced pass's spans as one JSON document.
func writeSpans(dir, workload string, seed int64, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	blob, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	return os.WriteFile(path, blob, 0o644)
}

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. The program under test is not instrumented: every span here
// brackets a call this package makes.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = a root span
	Name   string `json:"name"`
	Op     int    `json:"op"` // operation id the span belongs to
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
// A nil *tracer records nothing, so timed runs pay one nil check.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span indices
	op    int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// setOp tags the spans that follow with an operation id.
func (t *tracer) setOp(op int) {
	if t != nil {
		t.op = op
	}
}

// do runs fn inside a span named name, nested under the innermost open
// span.
func (t *tracer) do(name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{ID: i + 1, Parent: parent, Name: name, Op: t.op,
		Start: int64(time.Since(t.t0))})
	t.open = append(t.open, i)
	err := fn()
	t.open = t.open[:len(t.open)-1]
	t.spans[i].End = int64(time.Since(t.t0))
	return err
}

// selfSeconds sums, per span name, each span's duration minus the part
// of it that its child spans cover.
func (t *tracer) selfSeconds() map[string]float64 {
	child := make(map[int]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]float64)
	for _, s := range t.spans {
		out[s.Name] += float64(s.End-s.Start-child[s.ID]) / 1e9
	}
	return out
}

// totalSeconds sums the full duration of every span with the name.
func (t *tracer) totalSeconds(name string) float64 {
	var ns int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e9
}

// childSeconds sums the full duration of spans named one of names whose
// parent span is named parent.
func (t *tracer) childSeconds(parent string, names ...string) float64 {
	parentName := make(map[int]string, len(t.spans))
	for _, s := range t.spans {
		parentName[s.ID] = s.Name
	}
	var ns int64
	for _, s := range t.spans {
		if parentName[s.Parent] != parent {
			continue
		}
		for _, n := range names {
			if s.Name == n {
				ns += s.End - s.Start
			}
		}
	}
	return float64(ns) / 1e9
}

// count reports how many spans carry the name.
func (t *tracer) count(name string) int {
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			n++
		}
	}
	return n
}

// write stores the spans as JSON, in start order.
func (t *tracer) write(path string) error {
	b, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

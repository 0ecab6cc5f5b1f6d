package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer, recorded from outside the layer.  A
// span that covers a chunk of fast calls timed with one clock pair has
// Calls > 1; its per-call time is (End-Start)/Calls.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // span ID that caused this one; 0 for a root
	Round  int    `json:"round"`  // measured round, or -1 for set-up and layer probes
	Calls  int    `json:"calls"`
}

// count is one value observed at a layer boundary (gates compiled, undo
// bytes retained, ...), kept beside the spans so ratios are taken where the
// work happens.
type count struct {
	Name  string  `json:"name"`
	Round int     `json:"round"`
	Value float64 `json:"value"`
}

// tracer keeps spans and counts in memory until the run ends.  All methods
// are nil-safe: the untraced run passes a nil tracer and pays one branch.
// A tracer is used from one goroutine.
type tracer struct {
	t0     time.Time
	spans  []span
	counts []count
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its ID (0 on a nil tracer).
func (t *tracer) add(name string, parent, round, calls int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Name: name, Parent: parent, Round: round, Calls: calls,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
	return id
}

// span times f as one call of a layer probe and records it.
func (t *tracer) span(name string, parent int, f func()) (id int) {
	start := time.Now()
	f()
	return t.add(name, parent, -1, 1, start, time.Now())
}

func (t *tracer) count(name string, round int, v float64) {
	if t != nil {
		t.counts = append(t.counts, count{Name: name, Round: round, Value: v})
	}
}

// perCallUS lists the per-call duration in µs of every span with the name.
func (t *tracer) perCallUS(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3/float64(s.Calls))
		}
	}
	return out
}

// selfUS lists, for every span with the name, its duration minus the
// durations of the spans that name it as parent.
func (t *tracer) selfUS(name string) []float64 {
	children := map[int]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start-children[s.ID])/1e3)
		}
	}
	return out
}

// values lists every count recorded under the name.
func (t *tracer) values(name string) []float64 {
	var out []float64
	for _, c := range t.counts {
		if c.Name == name {
			out = append(out, c.Value)
		}
	}
	return out
}

// traceFile is the shape of <out>/<workload>.trace.json; the metrics derived
// from it and the environment are in <workload>.traced.json.
type traceFile struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Spans    []span  `json:"spans"`
	Counts   []count `json:"counts"`
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one bench-owned span: a call into a layer, timed from outside.
// Spans of one request share its index; Parent 0 marks a root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Request int    `json:"request"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write dumps them once the run ends. It
// is used from one goroutine at a time.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID.
func (tr *tracer) begin(name string, parent, req int) int {
	tr.spans = append(tr.spans, span{
		ID: len(tr.spans) + 1, Parent: parent, Name: name, Request: req,
		StartNS: int64(time.Since(tr.t0)),
	})
	return len(tr.spans)
}

// end closes span id and returns its duration.
func (tr *tracer) end(id int) time.Duration {
	s := &tr.spans[id-1]
	s.EndNS = int64(time.Since(tr.t0))
	return time.Duration(s.EndNS - s.StartNS)
}

// record adds a finished root span.
func (tr *tracer) record(name string, req int, start, end time.Time) {
	tr.spans = append(tr.spans, span{
		ID: len(tr.spans) + 1, Name: name, Request: req,
		StartNS: int64(start.Sub(tr.t0)), EndNS: int64(end.Sub(tr.t0)),
	})
}

// write stores the spans as dir/trace-<workload>.json.
func (tr *tracer) write(dir, workload string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, tr.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}

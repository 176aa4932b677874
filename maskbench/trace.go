package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// operation (a sim cell, a maskd job) share a parent.
type span struct {
	id, parent int
	lane       int // 0 for the sim workloads, the tenant for campaign
	name       string
	start, end time.Duration // since the tracer started
}

// tracer keeps spans in memory; writeFile exports them when the run ends.
// A nil tracer records nothing, so untraced runs pay only a nil check.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, lane int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{id: len(t.spans) + 1, parent: parent, lane: lane, name: name, start: time.Since(t.t0)})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id-1].end = time.Since(t.t0)
	t.mu.Unlock()
}

// writeFile exports the spans in Chrome trace_event format (load it in
// chrome://tracing or Perfetto).
func (t *tracer) writeFile(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		events = append(events, event{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.lane,
			Ts:   float64(s.start) / 1e3,
			Dur:  float64(s.end-s.start) / 1e3,
			Args: map[string]int{"id": s.id, "parent": s.parent},
		})
	}
	t.mu.Unlock()
	b, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// timed runs f as a span called name and returns its wall-clock duration.
func (t *tracer) timed(name string, parent, lane int, f func()) time.Duration {
	id := t.begin(name, parent, lane)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	t.end(id)
	return d
}

// profiler takes a traced worker's CPU profile in segments, saves each
// segment for `go tool pprof`, and adds its samples to layer tallies.
type profiler struct {
	dir, prefix string
	buf         bytes.Buffer
	segments    int
}

func (p *profiler) start() error {
	p.buf.Reset()
	return pprof.StartCPUProfile(&p.buf)
}

// stop ends the segment and adds its samples to into.
func (p *profiler) stop(into *layerTally) error {
	pprof.StopCPUProfile()
	p.segments++
	path := filepath.Join(p.dir, fmt.Sprintf("%s-%d.pprof", p.prefix, p.segments))
	if err := os.WriteFile(path, p.buf.Bytes(), 0o644); err != nil {
		return err
	}
	return into.add(p.buf.Bytes())
}

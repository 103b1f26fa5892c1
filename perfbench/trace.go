package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans are
// recorded from the benchmark's own code around public entry points;
// the program itself is not instrumented.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the span list, -1 for a root
	Op     int    `json:"op"`     // operation id, -1 outside the operation loop
	// Events is the simulated events the call processed, where the
	// layer exposes a counter for it.
	Events uint64 `json:"events,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
	op    int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), op: -1} }

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Op: t.op})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// wrap runs fn inside a span.
func (t *tracer) wrap(name string, fn func() error) error {
	id := t.begin(name)
	err := fn()
	t.end(id)
	return err
}

func (t *tracer) setOp(op int) {
	if t != nil {
		t.op = op
	}
}

func (t *tracer) durationMs(id int) float64 {
	return float64(t.spans[id].End-t.spans[id].Start) / 1e6
}

// selfTime sums, per span name, each span's duration minus the part of
// it that its children cover.
type selfTime struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

func (t *tracer) selfTimes() []selfTime {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	byName := map[string]*selfTime{}
	var names []string
	for i, s := range t.spans {
		st, ok := byName[s.Name]
		if !ok {
			st = &selfTime{Name: s.Name}
			byName[s.Name] = st
			names = append(names, s.Name)
		}
		st.Count++
		st.TotalS += float64(s.End-s.Start) / 1e9
		st.SelfS += float64(s.End-s.Start-child[i]) / 1e9
	}
	sort.Strings(names)
	out := make([]selfTime, len(names))
	for i, n := range names {
		out[i] = *byName[n]
	}
	return out
}

// traceFile is what a traced run writes next to its result.
type traceFile struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   int                `json:"seconds"`
	Digest    string             `json:"digest"`
	Note      string             `json:"note"`
	Layers    []layerRow         `json:"layers"`
	Metrics   map[string]float64 `json:"metrics"`
	SelfTimes []selfTime         `json:"self_times"`
	Spans     []span             `json:"spans"`
}

// layerRow is one line of the layer -> metric -> workload table.
type layerRow struct {
	Metric string   `json:"metric"`
	Layer  string   `json:"layer"`
	Moves  []string `json:"moves"`
	Quiet  []string `json:"predicted_no_change,omitempty"`
}

func layerTable() []layerRow {
	rows := make([]layerRow, len(perLayer))
	for i, m := range perLayer {
		rows[i] = layerRow{Metric: m.Name, Layer: m.Layer, Quiet: m.Quiet}
		for _, t := range m.Moves {
			rows[i].Moves = append(rows[i].Moves, t.Workload+":"+t.Metric)
		}
	}
	return rows
}

func writeTrace(path string, tf traceFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

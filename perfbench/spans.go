package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call the benchmark made into the program. Spans are
// recorded from the single driving goroutine, so a span's children are
// sequential and never overlap.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Op     int    `json:"op"`     // ID of the root span: all spans of one operation share it
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder started
	End    int64  `json:"end_ns"`
	// N is the number of work items the call covered (edges, messages,
	// supersteps); per-item layer costs divide by it.
	N int64 `json:"n,omitempty"`
	// Inner is the part of the call the program itself reports as
	// work, such as the sum of a run's superstep times.
	Inner int64 `json:"inner_ns,omitempty"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how the untraced runs measure: every
// begin/end pair costs one nil check.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int // indexes of the open spans, innermost last
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span under the innermost open one and returns its handle.
func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	id := len(r.spans) + 1
	s := span{ID: id, Op: id, Name: name, Start: int64(time.Since(r.t0))}
	if n := len(r.open); n > 0 {
		p := r.spans[r.open[n-1]]
		s.Parent, s.Op = p.ID, p.Op
	}
	r.spans = append(r.spans, s)
	r.open = append(r.open, id-1)
	return id - 1
}

// end closes the innermost open span, which must be h.
func (r *recorder) end(h int) { r.endN(h, 0, 0) }

// endN closes span h recording its work items and inner program time.
func (r *recorder) endN(h int, n, inner int64) {
	if r == nil || h < 0 {
		return
	}
	s := &r.spans[h]
	s.End, s.N, s.Inner = int64(time.Since(r.t0)), n, inner
	if top := len(r.open) - 1; top >= 0 && r.open[top] == h {
		r.open = r.open[:top]
	}
}

// spanStats aggregates the spans of one name.
type spanStats struct {
	count              int
	total, self, inner int64 // ns
	n                  int64
}

// aggregate folds spans by name. A span's self time is its duration
// minus the time its children cover.
func aggregate(spans []span) map[string]*spanStats {
	childNs := make(map[int]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			childNs[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]*spanStats)
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		d := s.End - s.Start
		st.count++
		st.total += d
		st.self += d - childNs[s.ID]
		st.inner += s.Inner
		st.n += s.N
	}
	return out
}

// meanMs is the mean duration per call in ms (0 without calls).
func (st *spanStats) meanMs() float64 {
	if st == nil || st.count == 0 {
		return 0
	}
	return float64(st.total) / float64(st.count) / 1e6
}

// nsPerItem is the duration per work item in ns (0 without items).
func (st *spanStats) nsPerItem() float64 {
	if st == nil || st.n == 0 {
		return 0
	}
	return float64(st.total) / float64(st.n)
}

// traceFile is what a traced run writes: its spans plus every number the
// per-layer table needs that spans cannot give (counters read from the
// program, and the end-to-end figures of both halves of the run).
// layerTable recomputes the whole table from it.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Input    inputStats         `json:"input"`
	Spans    []span             `json:"spans"`
	Readings map[string]float64 `json:"readings"`
	Untraced map[string]float64 `json:"untraced"`
	Traced   map[string]float64 `json:"traced"`
}

// layerTable derives every per-layer metric from a trace file.
func layerTable(tf *traceFile) map[string]float64 {
	out := make(map[string]float64, len(perLayer))
	for _, d := range layerDefs {
		out[d.name] = tf.Readings[d.name]
	}
	agg := aggregate(tf.Spans)
	if run := agg["client.run"]; run != nil && run.count > 0 {
		out["client.run_ms"] = run.meanMs()
		out["client.run_outside_steps_ms"] = float64(run.total-run.inner) / float64(run.count) / 1e6
	}
	out["client.seal_ms"] = agg["client.seal"].meanMs()
	out["client.query_us"] = agg["client.query"].meanMs() * 1e3
	out["streamer.send_ns_per_edge"] = agg["streamer.send_batch"].nsPerItem()
	out["streamer.flush_ms"] = agg["streamer.flush"].meanMs()
	out["route.edge_owner_ns"] = agg["route.edge_owner"].nsPerItem()
	out["graph.add_edge_ns"] = agg["graph.add_edge"].nsPerItem()
	out["graph.neighbor_scan_ns_per_edge"] = agg["graph.neighbor_scan"].nsPerItem()
	out["wire.encode_ns_per_msg"] = agg["wire.encode"].nsPerItem()
	out["wire.decode_ns_per_msg"] = agg["wire.decode"].nsPerItem()
	out["algorithm.reference_step_ms"] = agg["algorithm.run"].nsPerItem() / 1e6
	out["agent.add_agent_ms"] = agg["cluster.add_agent"].meanMs()
	out["agent.remove_agent_ms"] = agg["cluster.remove_agent"].meanMs()
	out["checkpoint.restart_agent_ms"] = agg["cluster.restart_agent"].meanMs()
	for _, d := range endToEnd {
		out["trace_overhead."+d.name] = tf.Traced[d.name] - tf.Untraced[d.name]
	}
	for _, name := range spanNames {
		if st := agg[name]; st != nil && st.count > 0 {
			out[selfMetric(name)] = float64(st.self) / float64(st.count) / 1e6
		} else {
			out[selfMetric(name)] = 0
		}
	}
	return out
}

func writeTraceFile(path string, tf *traceFile) error {
	data, err := json.Marshal(tf)
	if err != nil {
		return fmt.Errorf("encode span file: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write span file: %w", err)
	}
	return nil
}

func readTraceFile(path string) (*traceFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read span file: %w", err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		return nil, fmt.Errorf("decode span file %s: %w", path, err)
	}
	return &tf, nil
}

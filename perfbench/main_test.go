package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"elga/internal/algorithm"
)

// tiny is a graph scale at which every workload still splits a vertex
// and a whole run takes a few seconds.
const tiny = 0.05

// lastResult decodes the final JSON line of a run's output.
func lastResult(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return r
}

func requireMetrics(t *testing.T, r result, defs []metricDef) {
	t.Helper()
	if len(r.Metrics) != len(defs) {
		t.Errorf("%d metrics reported, catalog has %d", len(r.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := r.Metrics[d.name]
		if !ok {
			t.Errorf("metric %s missing", d.name)
		} else if m.Unit != d.unit {
			t.Errorf("metric %s: unit %q, want %q", d.name, m.Unit, d.unit)
		}
	}
}

// TestWorkloadsReportEveryMetric runs each workload at a tiny scale, once
// untraced and once traced, and checks the report: every named metric
// with its unit, every answer correct, and a span file from which the
// per-layer table recomputes exactly.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	for _, w := range specs {
		t.Run(w.name, func(t *testing.T) {
			out := t.TempDir()
			for _, traced := range []bool{false, true} {
				var stdout, stderr bytes.Buffer
				p := params{seed: 3, seconds: 0.6, trace: traced, scale: tiny, out: out}
				code := bench([]spec{w}, p, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("traced %v: exit %d\n%s%s", traced, code, stdout.String(), stderr.String())
				}
				r := lastResult(t, stdout.String())
				if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
					t.Fatalf("traced %v: correct=%v attempted=%d failed=%d", traced, r.Correct, r.Attempted, r.Failed)
				}
				if !traced {
					requireMetrics(t, r, endToEnd)
					for _, d := range endToEnd {
						if r.Metrics[d.name].Value <= 0 {
							t.Errorf("end-to-end %s = %v, want > 0", d.name, r.Metrics[d.name].Value)
						}
					}
					continue
				}
				requireMetrics(t, r, perLayer)
				tf, err := readTraceFile(filepath.Join(out, "spans-"+w.name+"-seed3.json"))
				if err != nil {
					t.Fatal(err)
				}
				if tf.Input.SplitVertices == 0 {
					t.Errorf("no vertex splits at scale %v", tiny)
				}
				for name, v := range layerTable(tf) {
					if got := r.Metrics[name].Value; got != v {
						t.Errorf("%s: reported %v, span file gives %v", name, got, v)
					}
				}
			}
		})
	}
}

// TestWrongReferenceFails corrupts each workload's reference and expects
// the run to count failures and report itself incorrect.
func TestWrongReferenceFails(t *testing.T) {
	corrupt := map[string]func(in *input){
		"pagerank-split": func(in *input) {
			v := in.sample[0]
			in.ref[v] = algorithm.FromF64(in.ref[v].F64() + 1e-6)
		},
		"ingest-stream": func(in *input) { in.refCopies++ },
		"incremental-wcc": func(in *input) {
			for v := range in.ref {
				in.ref[v]++ // every attached vertex now expects a wrong component
			}
		},
		"restore-rescale": func(in *input) { in.refCopies-- },
	}
	p := params{seed: 5, seconds: 0.3, scale: tiny, out: t.TempDir()}
	for _, w := range specs {
		t.Run(w.name, func(t *testing.T) {
			in := prepare(w, p.seed, p.scale)
			corrupt[w.name](in)
			r := runWorkload(w, in, p, io.Discard, io.Discard)
			if r.Correct || r.Failed == 0 {
				t.Fatalf("wrong reference passed: correct=%v failed=%d of %d", r.Correct, r.Failed, r.Attempted)
			}
		})
	}
}

// TestCatalogMatchesBenchmarkJSON keeps BENCHMARK.json and the code's
// workloads and metric catalogs in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, code has %d", len(b.Workloads), len(specs))
	}
	for i, w := range b.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: json %q %q, code %q %q", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
	}
	for _, c := range []struct {
		json []struct{ Name, Unit, Better string }
		code []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Fatalf("BENCHMARK.json lists %d metrics, code %d", len(c.json), len(c.code))
		}
		for i, m := range c.json {
			if d := c.code[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("metric %d: json %+v, code %+v", i, m, d)
			}
		}
	}
}

// TestSelfTime checks that a span's self time excludes its children.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: 1, Name: "client.seal", Start: 10, End: 40},
		{ID: 3, Parent: 1, Op: 1, Name: "client.run", Start: 50, End: 90, Inner: 25},
	}
	agg := aggregate(spans)
	if got := agg["op"].self; got != 100-30-40 {
		t.Errorf("op self = %d, want 30", got)
	}
	if got := agg["client.run"].self; got != 40 {
		t.Errorf("run self = %d, want 40", got)
	}
	if got := quantile([]float64{4, 1, 3, 2}, 0.5); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

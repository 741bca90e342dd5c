// Command perfbench is the repository's benchmark. It drives an
// in-process two-agent ElGA cluster through one of four workloads from a
// single goroutine, checks every answer against a single-threaded
// reference, and prints each metric by name with its unit. The last line
// of standard output is a JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// instrumentation of the benchmark's own. With -trace 1 the run measures
// once untraced and once traced (half the time each), records a span
// around every public call it makes, reads the program's counters and
// histograms, writes both to a span file and reports the per-layer table
// computed from that file. -table recomputes the table from a span file.
//
// Build and run it from the repository root with perfbench/run.sh; see
// perfbench/README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"elga/internal/config"
)

// params are one invocation's settings.
type params struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale shrinks the graphs; only the benchmark's tests set it below 1.
	scale float64
	out   string
}

// setups is how many times an untraced run sets its workload up;
// setup_s is their median.
const setups = 5

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses args, runs the workloads and returns the exit code: 0 when
// every operation succeeded with a correct answer, 1 otherwise, 2 for a
// usage error. A run that hangs exits 1 once it has taken 170 s, or four
// times its measured seconds if that is longer.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	p := params{scale: 1}
	var traceFlag int
	var table string
	fs.StringVar(&p.workload, "workload", "all", "workload to run, or all")
	fs.Int64Var(&p.seed, "seed", 1, "seed the workload's graph and choices are generated from")
	fs.Float64Var(&p.seconds, "seconds", 10, "measured seconds per run")
	fs.IntVar(&traceFlag, "trace", 0, "1 reports the per-layer table from a traced run, 0 the end-to-end metrics")
	fs.StringVar(&p.out, "out", ".bench_build", "directory for span files and checkpoint sinks")
	fs.StringVar(&table, "table", "", "print the per-layer table recomputed from this span file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if table != "" {
		tf, err := readTraceFile(table)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		printTable(stdout, tf.Workload, layerTable(tf))
		return 0
	}
	if traceFlag != 0 && traceFlag != 1 || p.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: need -trace 0|1 and -seconds > 0")
		return 2
	}
	p.trace = traceFlag == 1
	var todo []spec
	if p.workload == "all" {
		todo = specs
	} else if w, ok := findSpec(p.workload); ok {
		todo = []spec{w}
	} else {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", p.workload)
		return 2
	}
	limit := max(170*time.Second, time.Duration(4*p.seconds*float64(len(todo))*float64(time.Second)))
	time.AfterFunc(limit, func() {
		fmt.Fprintf(stderr, "perfbench: no result after %v\n", limit)
		os.Exit(1)
	})
	return bench(todo, p, stdout, stderr)
}

// bench runs the workloads and prints the result line; it returns run's
// exit code.
func bench(todo []spec, p params, stdout, stderr io.Writer) int {
	if err := os.MkdirAll(p.out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	final := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range todo {
		res := runWorkload(w, prepare(w, p.seed, p.scale), p, stdout, stderr)
		final.Correct = final.Correct && res.Correct
		final.Attempted += res.Attempted
		final.Failed += res.Failed
		for k, m := range res.Metrics {
			if len(todo) > 1 {
				k = w.name + "." + k
			}
			final.Metrics[k] = m
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !final.Correct {
		return 1
	}
	return 0
}

// phaseResult is what one phase measured.
type phaseResult struct {
	e2e       map[string]float64
	named     map[string]float64
	s         samples
	attempted int
	failed    int
	errs      []string
	acc       *layerAcc
	inboxMax  float64
}

// liveHeapMiB is the heap still reachable after a full collection. The
// second collection empties what the first moved to sync.Pool victim
// caches.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return float64(mem.HeapAlloc) / (1 << 20)
}

// settle waits out the timers a stopped cluster leaves behind (heartbeat
// and lease sweep), which keep it reachable until they fire, so that the
// next phase's heap reading does not include it.
func settle(cfg config.Config) {
	time.Sleep(max(cfg.HeartbeatEvery(), cfg.LeaseExpiry()/4) + 100*time.Millisecond)
}

// runPhase sets the workload up `n` times (keeping the last cluster),
// then repeats its operation for `seconds`. heap_mb is the live heap
// after the first set-up minus the live heap before it, so the
// benchmark's own input and references are not counted.
func runPhase(w spec, in *input, p params, tr *recorder, n int, seconds float64) *phaseResult {
	s := newSession(p, in, tr, w.config())
	defer s.close()
	var setupS []float64
	var heapMiB float64
	base := liveHeapMiB()
	var wl workload
	var err error
	res := &phaseResult{}
	for i := 0; i < n && err == nil; i++ {
		s.close()
		wl = w.newW(in)
		t0 := time.Now()
		h := tr.begin("setup")
		err = wl.setup(s)
		tr.end(h)
		setupS = append(setupS, time.Since(t0).Seconds())
		if i == 0 {
			// Only the first setup runs in a process that never held
			// another cluster.
			heapMiB = liveHeapMiB() - base
		}
	}
	if err == nil {
		res.e2e = map[string]float64{"setup_s": quantile(setupS, 0.5), "heap_mb": heapMiB}

		s.startMeasuring()
		deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
		for time.Now().Before(deadline) {
			h := tr.begin("op")
			err = wl.op(s)
			tr.end(h)
			if err != nil {
				break
			}
			s.s.ops++
		}
		s.stopMeasuring()
		if w.split {
			s.check(s.acc.hists["combine"].Count > 0, "%s: the combine phase never ran, so no vertex split", w.name)
		}
		res.e2e["op_ms_p50"] = quantile(s.s.op, 0.5)
		s.check(len(s.s.op) > 0, "%s: no operation completed in %.1fs", w.name, seconds)
	}
	res.s, res.acc = s.s, s.acc
	res.attempted, res.failed, res.errs = s.attempted, s.failed, s.errs
	res.inboxMax = inboxMax(s)
	res.named = map[string]float64{
		"op_ms_p90":           quantile(s.s.op, 0.9),
		"superstep_ms_p50":    quantile(s.s.step, 0.5),
		"superstep_ms_p90":    quantile(s.s.step, 0.9),
		"ingest_edges_per_s":  quantile(s.s.ingest, 0.5),
		"batch_result_ms_p50": quantile(s.s.batch, 0.5),
		"batch_result_ms_p95": quantile(s.s.batch, 0.95),
		"restore_ms_p50":      quantile(s.s.restore, 0.5),
		"rescale_ms_p50":      quantile(s.s.rescale, 0.5),
		"ops_failed_ratio":    ratio(s.failed, s.attempted),
	}
	return res
}

// runWorkload runs one workload on its prepared input as the flags ask
// and prints its report.
func runWorkload(w spec, in *input, p params, stdout, stderr io.Writer) result {
	st := in.stats
	fmt.Fprintf(stdout, "# %s seed=%d graph=%s n=%d m=%d max_degree=%d split_vertices=%d agents=%d\n",
		w.name, st.Seed, st.Graph, st.N, st.M, st.MaxDegree, st.SplitVertices, agents)
	res := result{Metrics: map[string]metric{}}
	var phases []*phaseResult
	if !p.trace {
		ph := runPhase(w, in, p, nil, setups, p.seconds)
		phases = append(phases, ph)
		printSamples(stdout, ph)
		for _, d := range endToEnd {
			res.Metrics[d.name] = metric{ph.e2e[d.name], d.unit}
		}
	} else {
		untraced := runPhase(w, in, p, nil, 1, p.seconds/2)
		settle(w.config())
		tr := newRecorder()
		traced := runPhase(w, in, p, tr, 1, p.seconds/2)
		phases = append(phases, untraced, traced)
		printSamples(stdout, untraced)

		cfg := w.config()
		probeLayers(tr, in, cfg, traced.acc.msgBatchSize(traced.s.steps))
		tf := &traceFile{Workload: w.name, Seed: p.seed, Input: st, Spans: tr.spans,
			Readings: traced.acc.readings(traced.s.steps, traced.s.ops, traced.inboxMax),
			Untraced: untraced.e2e, Traced: traced.e2e}
		for k, v := range untraced.named {
			tf.Readings[k] = v
		}
		tf.Readings["route.split_vertices"] = float64(st.SplitVertices)
		path := filepath.Join(p.out, fmt.Sprintf("spans-%s-seed%d.json", w.name, p.seed))
		if err := writeTraceFile(path, tf); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			res.Attempted, res.Failed = 1, 1
		} else {
			fmt.Fprintf(stdout, "# spans: %s (%d spans; recompute the table with -table)\n", path, len(tr.spans))
		}
		table := layerTable(tf)
		printTable(stdout, w.name, table)
		for _, d := range perLayer {
			res.Metrics[d.name] = metric{table[d.name], d.unit}
		}
	}
	for _, ph := range phases {
		res.Attempted += ph.attempted
		res.Failed += ph.failed
		for _, e := range ph.errs {
			fmt.Fprintf(stderr, "perfbench: %s: FAILED: %s\n", w.name, e)
		}
		if ph.e2e == nil {
			res.Failed++ // the phase never got past setup
		}
	}
	res.Correct = res.Failed == 0
	fmt.Fprintf(stdout, "# %s: %d operations, %d failed, ops_failed_ratio=%g\n",
		w.name, res.Attempted, res.Failed, ratio(res.Failed, res.Attempted))
	return res
}

// printSamples prints a phase's end-to-end metrics and the paper's named
// figures with their sample counts and the highest percentile those
// support (at least ten samples beyond it).
func printSamples(w io.Writer, ph *phaseResult) {
	for _, d := range endToEnd {
		fmt.Fprintf(w, "%-22s %14.4f %-8s\n", d.name, ph.e2e[d.name], d.unit)
	}
	series := []struct {
		name string
		xs   []float64
		unit string
	}{
		{"superstep_ms", ph.s.step, "ms"},
		{"ingest_edges_per_s", ph.s.ingest, "edges/s"},
		{"batch_result_ms", ph.s.batch, "ms"},
		{"restore_ms", ph.s.restore, "ms"},
		{"rescale_ms", ph.s.rescale, "ms"},
		{"op_ms", ph.s.op, "ms"},
	}
	for _, s := range series {
		if len(s.xs) == 0 {
			continue
		}
		fmt.Fprintf(w, "%-22s p50=%.4f p90=%.4f p95=%.4f %s  (%d samples; supports %s)\n",
			s.name, quantile(s.xs, 0.5), quantile(s.xs, 0.9), quantile(s.xs, 0.95), s.unit, len(s.xs), supported(len(s.xs)))
	}
	fmt.Fprintf(w, "%-22s %14.6f ratio  (%d failed of %d)\n", "ops_failed_ratio", ratio(ph.failed, ph.attempted), ph.failed, ph.attempted)
}

// printTable prints the per-layer metrics grouped by module.
func printTable(w io.Writer, workload string, table map[string]float64) {
	defs := append([]metricDef(nil), perLayer...)
	sort.SliceStable(defs, func(i, j int) bool { return module(defs[i].name) < module(defs[j].name) })
	fmt.Fprintf(w, "# per-layer table: %s\n", workload)
	for _, d := range defs {
		fmt.Fprintf(w, "%-40s %16.4f %s\n", d.name, table[d.name], d.unit)
	}
}

func module(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return ""
}

// supported names the highest percentile with at least ten samples
// beyond it.
func supported(n int) string {
	for _, q := range []struct {
		q    float64
		name string
	}{{0.99, "p99"}, {0.95, "p95"}, {0.9, "p90"}, {0.5, "p50"}} {
		if float64(n)*(1-q.q) >= 10 {
			return q.name
		}
	}
	return "none"
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// quantile interpolates between the closest ranks (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
}

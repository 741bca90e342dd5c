package main

import (
	"fmt"
	"math"
	"os"
	"sync/atomic"
	"time"

	"elga/internal/algorithm"
	"elga/internal/autoscale"
	"elga/internal/checkpoint"
	"elga/internal/client"
	"elga/internal/cluster"
	"elga/internal/config"
	"elga/internal/events"
	"elga/internal/graph"
	"elga/internal/metrics"
	"elga/internal/profile"
	"elga/internal/streamer"
	"elga/internal/trace"
	"elga/internal/wire"
)

// agents is the fixed cluster size of every workload: one agent per core
// of a 2-CPU host, as the paper deploys one agent per core.
const agents = 2

// samples collects one phase's measurements.
type samples struct {
	op      []float64 // ms, the workload's unit operation (op_ms)
	step    []float64 // ms, RunStats.StepTimes
	ingest  []float64 // edges/s, first Send to Seal return
	batch   []float64 // ms, batch start to a correct Query answer
	restore []float64 // ms, RestartAgent to Seal with the copies back
	rescale []float64 // ms, AddAgent/RemoveAgent plus Seal
	steps   int       // supersteps run while measuring
	ops     int       // workload operations while measuring
}

// session is one phase of a run: a cluster driven from one goroutine,
// the spans recorded around its public calls (tr is nil when untraced),
// and the tally of attempted and failed operations. A failed operation
// is an error, a timeout, or a wrong answer.
type session struct {
	p   params
	in  *input
	tr  *recorder
	cfg config.Config
	dur *checkpoint.Config

	reg *metrics.Registry
	c   *cluster.Cluster
	st  *streamer.Streamer
	cl  *client.Client

	measuring bool
	win       *window
	acc       *layerAcc
	inboxMax  atomic.Uint64 // float64 bits; written on the coordinator's loop

	s         samples
	attempted int
	failed    int
	errs      []string
}

func newSession(p params, in *input, tr *recorder, cfg config.Config) *session {
	return &session{p: p, in: in, tr: tr, cfg: cfg, acc: newLayerAcc()}
}

// attempt counts one operation and its outcome; err is returned as is.
func (s *session) attempt(err error) error {
	s.attempted++
	if err != nil {
		s.fail("%v", err)
	}
	return err
}

// fail records a failed operation that was already counted as attempted.
func (s *session) fail(format string, args ...any) {
	s.failed++
	if len(s.errs) < 8 {
		s.errs = append(s.errs, fmt.Sprintf(format, args...))
	}
}

// check counts one verification as an operation that fails unless ok.
func (s *session) check(ok bool, format string, args ...any) {
	s.attempted++
	if !ok {
		s.fail(format, args...)
	}
}

// onMetric keeps the largest inbox depth any agent reported. Agents
// report it with every fourth heartbeat, so this samples the inboxes
// every 2 s under the default configuration.
func (s *session) onMetric(m *wire.Metric) {
	if m.Name != autoscale.MetricInboxDepth {
		return
	}
	for {
		old := s.inboxMax.Load()
		if m.Value <= math.Float64frombits(old) ||
			s.inboxMax.CompareAndSwap(old, math.Float64bits(m.Value)) {
			return
		}
	}
}

// boot starts a fresh two-agent cluster with its own metric registry,
// plus the streamer and client the workload drives it through. The
// program's own tracing, event and profiling planes stay off so that the
// environment cannot change what is measured; comm accounting is on in
// traced runs only.
func (s *session) boot() error {
	h := s.tr.begin("cluster.new")
	s.reg = metrics.NewRegistry()
	c, err := cluster.New(cluster.Options{
		Config: s.cfg, Agents: agents, Metrics: s.reg, MetricHandler: s.onMetric,
		Trace: &trace.Config{}, Events: &events.Config{}, Profile: &profile.Config{},
		CommAccounting: s.tr != nil, Durability: s.dur,
	})
	if err == nil {
		s.c = c
		s.st, err = c.NewStreamer()
	}
	if err == nil {
		s.cl, err = c.NewClient()
	}
	s.tr.end(h)
	if err := s.attempt(err); err != nil {
		return fmt.Errorf("boot: %w", err)
	}
	if s.measuring {
		s.win = openWindow(s.reg)
	}
	return nil
}

// shutdown closes the measuring window, if any, and stops the cluster.
func (s *session) shutdown() {
	if s.c == nil {
		return
	}
	if s.win != nil {
		s.win.close(s.acc, s.reg, s.c)
		s.win = nil
	}
	h := s.tr.begin("cluster.shutdown")
	// The streamer holds no unflushed changes here and the client only
	// releases its node, so neither Close can fail in a way that matters.
	_ = s.st.Close()
	_ = s.cl.Close()
	s.c.Shutdown()
	s.tr.end(h)
	s.c, s.st, s.cl = nil, nil, nil
}

// close stops the cluster and removes its checkpoint sink, if any.
func (s *session) close() {
	s.shutdown()
	if s.dur != nil {
		_ = os.RemoveAll(s.dur.Dir) // a leftover sink under the output directory is harmless
		s.dur = nil
	}
}

func inboxMax(s *session) float64 { return math.Float64frombits(s.inboxMax.Load()) }

// startMeasuring opens the window on the running cluster and forgets the
// inbox depths reported during set-up.
func (s *session) startMeasuring() {
	s.measuring = true
	s.inboxMax.Store(0)
	if s.c != nil {
		s.win = openWindow(s.reg)
	}
}

// stopMeasuring closes the window on the running cluster.
func (s *session) stopMeasuring() {
	if s.win != nil {
		s.win.close(s.acc, s.reg, s.c)
		s.win = nil
	}
	s.measuring = false
}

// load streams a batch through the streamer and seals it, returning the
// ingest rate: changes divided by the time from the first Send to the
// return of Seal.
func (s *session) load(b graph.Batch) (float64, error) {
	t0 := time.Now()
	h := s.tr.begin("streamer.send_batch")
	err := s.st.SendBatch(b)
	s.tr.endN(h, int64(len(b)), 0)
	if err := s.attempt(err); err != nil {
		return 0, fmt.Errorf("send: %w", err)
	}
	if err := s.flush(); err != nil {
		return 0, err
	}
	if err := s.seal(); err != nil {
		return 0, err
	}
	return float64(len(b)) / time.Since(t0).Seconds(), nil
}

func (s *session) flush() error {
	h := s.tr.begin("streamer.flush")
	err := s.st.Flush()
	s.tr.end(h)
	if err := s.attempt(err); err != nil {
		return fmt.Errorf("flush: %w", err)
	}
	return nil
}

func (s *session) seal() error {
	h := s.tr.begin("client.seal")
	err := s.cl.Seal()
	s.tr.end(h)
	if err := s.attempt(err); err != nil {
		return fmt.Errorf("seal: %w", err)
	}
	return nil
}

// run executes one algorithm run and records its superstep times.
func (s *session) run(spec client.RunSpec) (*wire.RunStats, error) {
	h := s.tr.begin("client.run")
	st, err := s.cl.Run(spec)
	var inner time.Duration
	if err == nil {
		for _, d := range st.StepTimes {
			inner += d
		}
	}
	s.tr.endN(h, 0, int64(inner))
	if err := s.attempt(err); err != nil {
		return nil, fmt.Errorf("run %s: %w", spec.Algo, err)
	}
	if s.measuring {
		s.s.steps += int(st.Steps)
		for _, d := range st.StepTimes {
			s.s.step = append(s.s.step, ms(d))
		}
	}
	return st, nil
}

// query reads one vertex's state, counting a missing vertex as failed.
func (s *session) query(v graph.VertexID) (algorithm.Word, bool) {
	h := s.tr.begin("client.query")
	w, found, err := s.cl.Query(v)
	s.tr.end(h)
	if s.attempt(err) != nil {
		return 0, false
	}
	if !found {
		s.fail("query %d: vertex not found", v)
		return 0, false
	}
	return w, true
}

// expectF64 queries v and checks its float state against want to within
// tol; it returns what the cluster answered. when names the check in a
// failure.
func (s *session) expectF64(when string, v graph.VertexID, want, tol float64) float64 {
	w, ok := s.query(v)
	if !ok {
		return math.NaN()
	}
	if got := w.F64(); math.Abs(got-want) > tol {
		s.fail("%s: vertex %d: got %v, want %v (tol %v)", when, v, got, want, tol)
	}
	return w.F64()
}

// expectWord queries v and checks its state equals want exactly.
func (s *session) expectWord(v graph.VertexID, want algorithm.Word) {
	if w, ok := s.query(v); ok && w != want {
		s.fail("vertex %d: got %d, want %d", v, w, want)
	}
}

// copies is the number of edge copies the live agents store.
func (s *session) copies() int {
	total := 0
	for _, n := range s.c.EdgeCounts() {
		total += n
	}
	return total
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

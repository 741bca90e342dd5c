package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"time"

	"elga/internal/algorithm"
	"elga/internal/checkpoint"
	"elga/internal/client"
	"elga/internal/config"
	"elga/internal/gen"
	"elga/internal/graph"
)

// input is a workload's generated graph plus the references its answers
// are checked against. Only the edges reach the program.
type input struct {
	stats   inputStats
	edges   graph.EdgeList
	changes graph.Batch
	// refProg and refOpts name the single-threaded reference run; ref is
	// its result, nil for a workload that checks no answer against it.
	refProg algorithm.Program
	refOpts algorithm.RunOptions
	ref     map[graph.VertexID]algorithm.Word
	// refCopies is the edge-copy count a single store holds for edges.
	refCopies int
	// sample are the vertices whose answers are checked: the highest
	// degree ones (split across agents) and a seeded random set.
	sample []graph.VertexID
}

// inputStats describes the generated graph.
type inputStats struct {
	Graph         string `json:"graph"`
	Seed          int64  `json:"seed"`
	N             int    `json:"n"`
	M             int    `json:"m"`
	MaxDegree     int    `json:"max_degree"`
	SplitVertices int    `json:"split_vertices"`
}

// workload is one benchmark scenario. setup (boot, load, seal, warm-up)
// is timed as setup_s; op is the repeated measured operation.
type workload interface {
	setup(s *session) error
	op(s *session) error
}

// spec describes a workload: its stand-in graph, configuration and
// reference, and a constructor for its per-phase state.
type spec struct {
	name, why string
	// graph generates the stand-in from the seed; scale shrinks it for
	// tests.
	graph   func(seed int64, scale float64) (string, graph.EdgeList)
	refProg algorithm.Program
	refOpts algorithm.RunOptions
	config  func() config.Config
	newW    func(in *input) workload
	// split fails the run unless the combine phase of split vertices ran.
	split bool
	// noRef skips the reference run: the workload checks no answer
	// against it. refProg still names the traced run's algorithm probe.
	noRef bool
}

// prSteps is the length of every PageRank run.
const prSteps = 10

// specs lists the workloads in report order.
var specs = []spec{
	{
		name: "pagerank-split",
		why:  "skewed twitter stand-in with split vertices; repeated PageRank loads the superstep path (compute, combine, scatter, transport, barrier)",
		graph: func(seed int64, scale float64) (string, graph.EdgeList) {
			return "twitter", rmat(14, 120_000, scale, seed)
		},
		refProg: algorithm.PageRank{}, refOpts: algorithm.RunOptions{MaxSteps: prSteps},
		config: config.Default,
		newW:   func(in *input) workload { return &pagerankSplit{in: in} },
		split:  true,
	},
	{
		name: "ingest-stream",
		why:  "skitter stand-in streamed into a fresh cluster and sealed, pass after pass; loads routing, wire, transport, store insert and the seal",
		graph: func(seed int64, scale float64) (string, graph.EdgeList) {
			return "skitter", rmat(15, 280_000, scale, seed)
		},
		refProg: algorithm.PageRank{}, refOpts: algorithm.RunOptions{MaxSteps: 5},
		config: config.Default,
		newW:   func(in *input) workload { return &ingestStream{in: in} },
		noRef:  true,
	},
	{
		name: "incremental-wcc",
		why:  "livejournal stand-in; closed loop of one-edge insert, seal, incremental WCC and query; loads the fixed-cost control path",
		graph: func(seed int64, scale float64) (string, graph.EdgeList) {
			return "livejournal", gen.PreferentialAttachment(scaled(45_000, scale), 8, seed)
		},
		refProg: algorithm.WCC{},
		config:  config.Default,
		newW:    func(in *input) workload { return newIncrementalWCC(in) },
	},
	{
		name: "restore-rescale",
		why:  "PageRank with a checkpoint every superstep, then kill and warm restart, add and remove an agent; loads checkpoint, restore and migration",
		graph: func(seed int64, scale float64) (string, graph.EdgeList) {
			return "twitter", rmat(14, 120_000, scale, seed)
		},
		refProg: algorithm.PageRank{}, refOpts: algorithm.RunOptions{MaxSteps: prSteps},
		config: restoreConfig,
		newW:   func(in *input) workload { return &restoreRescale{in: in} },
	},
}

func findSpec(name string) (spec, bool) {
	for _, w := range specs {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

// restoreConfig is the default configuration with the failure detector
// of the repository's chaos tests, so a killed agent is evicted within
// about a second. The eviction wait is a configured timeout and is not
// part of any timing.
func restoreConfig() config.Config {
	cfg := config.Default()
	cfg.HeartbeatInterval = 50 * time.Millisecond
	cfg.LeaseTimeout = 800 * time.Millisecond
	return cfg
}

func scaled(n int, scale float64) int { return max(1, int(float64(n)*scale)) }

// rmat generates an R-MAT stand-in, shrinking the vertex space with the
// edge count so a tiny test graph stays as skewed.
func rmat(bits, m int, scale float64, seed int64) graph.EdgeList {
	if scale < 1 {
		bits += int(math.Round(math.Log2(scale)))
	}
	return gen.RMAT(bits, scaled(m, scale), gen.Graph500Params(), seed)
}

// prepare generates a workload's input from the seed and computes its
// references.
func prepare(w spec, seed int64, scale float64) *input {
	name, el := w.graph(seed, scale)
	in := &input{edges: el, changes: el.Changes(), refProg: w.refProg, refOpts: w.refOpts}
	deg := el.Degrees()
	in.stats = inputStats{Graph: name, Seed: seed, N: el.NumVertices(), M: len(el)}
	store := graph.NewStore()
	for _, e := range el {
		store.AddEdge(e.Src, e.Dst, graph.Out)
		store.AddEdge(e.Src, e.Dst, graph.In)
	}
	in.refCopies = store.NumEdgeCopies()
	if !w.noRef {
		in.ref = algorithm.Run(w.refProg, el, w.refOpts).State
	}
	replicas := replicaFn(w.config(), el)
	for _, v := range store.VertexList() {
		if replicas(v) > 1 {
			in.stats.SplitVertices++
		}
	}

	// Check the highest-degree vertices, which split across agents when
	// their estimate passes the replication threshold, and a seeded
	// random set.
	verts := store.VertexList()
	sort.Slice(verts, func(i, j int) bool {
		if deg[verts[i]] != deg[verts[j]] {
			return deg[verts[i]] > deg[verts[j]]
		}
		return verts[i] < verts[j]
	})
	in.stats.MaxDegree = deg[verts[0]]
	top := min(8, len(verts))
	in.sample = append(in.sample, verts[:top]...)
	rng := rand.New(rand.NewSource(seed))
	for _, i := range rng.Perm(len(verts) - top)[:min(24, len(verts)-top)] {
		in.sample = append(in.sample, verts[top+i])
	}
	return in
}

// pagerankSplit: load once, then from-scratch PageRank runs. op_ms is
// the superstep time.
type pagerankSplit struct{ in *input }

func (w *pagerankSplit) setup(s *session) error {
	if err := s.boot(); err != nil {
		return err
	}
	if _, err := s.load(w.in.changes); err != nil {
		return err
	}
	return w.pagerank(s)
}

func (w *pagerankSplit) op(s *session) error {
	if err := w.pagerank(s); err != nil {
		return err
	}
	s.s.op = s.s.step
	return nil
}

// pagerank runs PageRank from scratch and checks the sampled vertices
// against the reference to 1e-8.
func (w *pagerankSplit) pagerank(s *session) error {
	if _, err := s.run(client.RunSpec{Algo: "pagerank", MaxSteps: prSteps, FromScratch: true}); err != nil {
		return err
	}
	h := s.tr.begin("check")
	for _, v := range w.in.sample {
		s.expectF64("pagerank", v, w.in.ref[v].F64(), 1e-8)
	}
	s.tr.end(h)
	return nil
}

// ingestStream: every op boots a fresh cluster, streams the whole graph
// and seals. op_ms is the time from the first Send to Seal's return.
type ingestStream struct{ in *input }

func (w *ingestStream) setup(s *session) error { return w.pass(s) }

func (w *ingestStream) op(s *session) error {
	s.shutdown()
	return w.pass(s)
}

func (w *ingestStream) pass(s *session) error {
	if err := s.boot(); err != nil {
		return err
	}
	t0 := time.Now()
	rate, err := s.load(w.in.changes)
	if err != nil {
		return err
	}
	elapsed := ms(time.Since(t0))
	got := s.copies()
	s.check(got == w.in.refCopies, "ingest: %d edge copies stored, reference %d", got, w.in.refCopies)
	if s.measuring {
		s.s.op = append(s.s.op, elapsed)
		s.s.ingest = append(s.s.ingest, rate)
	}
	return nil
}

// incrementalWCC: WCC once, then a closed loop of one-edge batches. Each
// batch attaches a fresh vertex to a known one, so the fresh vertex's
// correct component is the known vertex's. op_ms is the batch latency.
type incrementalWCC struct {
	in    *input
	added map[graph.VertexID]algorithm.Word // components of attached vertices
	verts []graph.VertexID                  // attachment candidates
	next  graph.VertexID
	rng   *rand.Rand
}

func newIncrementalWCC(in *input) *incrementalWCC {
	w := &incrementalWCC{in: in, added: make(map[graph.VertexID]algorithm.Word),
		next: in.edges.MaxVertex() + 1, rng: rand.New(rand.NewSource(in.stats.Seed))}
	for v := range in.ref {
		w.verts = append(w.verts, v)
	}
	sort.Slice(w.verts, func(i, j int) bool { return w.verts[i] < w.verts[j] })
	return w
}

func (w *incrementalWCC) component(v graph.VertexID) algorithm.Word {
	if c, ok := w.added[v]; ok {
		return c
	}
	return w.in.ref[v]
}

func (w *incrementalWCC) setup(s *session) error {
	if err := s.boot(); err != nil {
		return err
	}
	if _, err := s.load(w.in.changes); err != nil {
		return err
	}
	if _, err := s.run(client.RunSpec{Algo: "wcc", FromScratch: true}); err != nil {
		return err
	}
	h := s.tr.begin("check")
	for _, v := range w.in.sample {
		s.expectWord(v, w.in.ref[v])
	}
	s.tr.end(h)
	return nil
}

func (w *incrementalWCC) op(s *session) error {
	u := w.verts[w.rng.Intn(len(w.verts))]
	x := w.next
	w.next++
	want := w.component(u)

	t0 := time.Now()
	if err := w.batch(s, u, x, want); err != nil {
		return err
	}
	s.s.batch = append(s.s.batch, ms(time.Since(t0)))
	s.s.op = s.s.batch
	w.added[x] = want
	w.verts = append(w.verts, x)
	return nil
}

func (w *incrementalWCC) batch(s *session, u, x graph.VertexID, want algorithm.Word) error {
	hs := s.tr.begin("streamer.send_batch")
	err := s.st.SendBatch(graph.Batch{{Action: graph.Insert, Src: u, Dst: x}})
	s.tr.endN(hs, 1, 0)
	if err := s.attempt(err); err != nil {
		return fmt.Errorf("send: %w", err)
	}
	if err := s.flush(); err != nil {
		return err
	}
	if err := s.seal(); err != nil {
		return err
	}
	if _, err := s.run(client.RunSpec{Algo: "wcc"}); err != nil {
		return err
	}
	s.expectWord(x, want)
	return nil
}

// restoreRescale: PageRank with a checkpoint every superstep, then kill
// an agent and restart it warm from its checkpoint, add an agent and
// remove one. After every membership change the copy count and the
// sampled answers must equal their values before the kill. op_ms is one
// membership cycle: the sum of the three changes, each timed to its
// Seal's return, so a slowdown in any of them moves it.
type restoreRescale struct {
	in   *input
	pre  map[graph.VertexID]float64
	want int
}

func (w *restoreRescale) setup(s *session) error {
	dir, err := os.MkdirTemp(s.p.out, "ckpt-")
	if err != nil {
		return fmt.Errorf("checkpoint dir: %w", err)
	}
	s.dur = &checkpoint.Config{Enabled: true, Dir: dir, EverySteps: 1}
	if err := s.boot(); err != nil {
		return err
	}
	if _, err := s.load(w.in.changes); err != nil {
		return err
	}
	return w.pagerank(s)
}

func (w *restoreRescale) pagerank(s *session) error {
	if _, err := s.run(client.RunSpec{Algo: "pagerank", MaxSteps: prSteps, FromScratch: true}); err != nil {
		return err
	}
	h := s.tr.begin("check")
	w.pre = make(map[graph.VertexID]float64, len(w.in.sample))
	for _, v := range w.in.sample {
		w.pre[v] = s.expectF64("pagerank", v, w.in.ref[v].F64(), 1e-8)
	}
	w.want = s.copies()
	s.check(w.want == w.in.refCopies, "restore: %d edge copies stored, reference %d", w.want, w.in.refCopies)
	s.tr.end(h)
	return nil
}

func (w *restoreRescale) op(s *session) error {
	if err := w.pagerank(s); err != nil {
		return err
	}
	// Run returns before the agents have taken their run-end checkpoint,
	// and a kill inside that window legitimately restores split vertices
	// one combine behind. A batch boundary comes after the run end at
	// every agent and checkpoints again, so after Seal the final values
	// are durable and the pre-kill comparison is well defined.
	if err := s.seal(); err != nil {
		return err
	}
	slot := s.c.AgentSlot(0)
	h := s.tr.begin("cluster.kill_agent")
	err := s.c.KillAgent(0)
	s.tr.end(h)
	if err := s.attempt(err); err != nil {
		return fmt.Errorf("kill: %w", err)
	}
	if err := w.awaitEviction(s); err != nil {
		return err
	}

	steps := []struct {
		span string
		call func() error
		into *[]float64
	}{
		{"cluster.restart_agent", func() error { _, err := s.c.RestartAgent(slot); return err }, &s.s.restore},
		{"cluster.add_agent", func() error { _, err := s.c.AddAgent(); return err }, &s.s.rescale},
		{"cluster.remove_agent", func() error { return s.c.RemoveAgent(s.c.NumAgents() - 1) }, &s.s.rescale},
	}
	var cycle float64
	for _, st := range steps {
		t0 := time.Now()
		h := s.tr.begin(st.span)
		err := st.call()
		s.tr.end(h)
		if err := s.attempt(err); err != nil {
			return fmt.Errorf("%s: %w", st.span, err)
		}
		if err := s.seal(); err != nil {
			return err
		}
		d := ms(time.Since(t0))
		*st.into = append(*st.into, d)
		cycle += d
		w.verify(s, st.span)
	}
	s.s.op = append(s.s.op, cycle)
	return nil
}

// awaitEviction waits until the coordinator has evicted the killed agent
// from the view the client routes by.
func (w *restoreRescale) awaitEviction(s *session) error {
	h := s.tr.begin("wait.eviction")
	defer s.tr.end(h)
	poll := client.CallOpts{Timeout: 2 * time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for s.cl.NumAgents() != s.c.NumAgents() {
		if time.Now().After(deadline) {
			return s.attempt(fmt.Errorf("eviction: view still has %d agents", s.cl.NumAgents()))
		}
		// A query drains pending view updates into the client's router;
		// it may fail while the dead agent is still routed to.
		_, _, _ = s.cl.QueryWith(w.in.sample[0], poll)
		time.Sleep(10 * time.Millisecond)
	}
	return nil
}

// verify checks that a membership change kept every edge copy and every
// sampled answer.
func (w *restoreRescale) verify(s *session, after string) {
	h := s.tr.begin("check")
	defer s.tr.end(h)
	got := s.copies()
	s.check(got == w.want, "after %s: %d edge copies, %d before the kill", after, got, w.want)
	for _, v := range w.in.sample {
		s.expectF64("after "+after, v, w.pre[v], 0)
	}
}

package main

import (
	"math"
	"runtime"
	"strconv"
	"strings"

	"elga/internal/algorithm"
	"elga/internal/cluster"
	"elga/internal/config"
	"elga/internal/consistent"
	"elga/internal/graph"
	"elga/internal/metrics"
	"elga/internal/wire"
)

// scrape reads every counter and gauge the registry exports, keyed by
// family and then by label set, from the same text the /metrics endpoint
// serves. Histogram lines are skipped; histograms are read through their
// handles (see histograms).
func scrape(reg *metrics.Registry) map[string]map[string]float64 {
	var b strings.Builder
	_ = reg.WritePrometheus(&b) // a strings.Builder write cannot fail
	out := make(map[string]map[string]float64)
	for _, line := range strings.Split(b.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name, labels := line[:sp], ""
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name, labels = name[:i], name[i:]
		}
		if strings.HasSuffix(name, "_bucket") || strings.HasSuffix(name, "_sum") || strings.HasSuffix(name, "_count") {
			continue
		}
		if out[name] == nil {
			out[name] = make(map[string]float64)
		}
		out[name][labels] = v
	}
	return out
}

// sumFamily adds a family's values over the label sets containing sub.
func sumFamily(s map[string]map[string]float64, family, sub string) float64 {
	var total float64
	for labels, v := range s[family] {
		if strings.Contains(labels, sub) {
			total += v
		}
	}
	return total
}

// histDef names one histogram the program registers.
type histDef struct {
	name   string
	labels metrics.Labels
	bounds []float64
}

// Histograms the per-layer table reads, by short key.
var histDefs = map[string]histDef{
	"compute":   {"elga_superstep_phase_seconds", metrics.Labels{"phase": "compute"}, metrics.DurationBuckets},
	"combine":   {"elga_superstep_phase_seconds", metrics.Labels{"phase": "combine"}, metrics.DurationBuckets},
	"barrier":   {"elga_barrier_wait_seconds", nil, metrics.DurationBuckets},
	"dirstep":   {"elga_dir_superstep_seconds", nil, metrics.DurationBuckets},
	"rtt":       {"elga_reqrep_roundtrip_seconds", metrics.Labels{"role": "client"}, metrics.DurationBuckets},
	"frontier":  {"elga_delta_frontier_size", nil, metrics.SizeBuckets},
	"ckptbuild": {"elga_ckpt_build_seconds", nil, metrics.DurationBuckets},
}

// Counter families the table reads as deltas over a window, with the
// label filter each is summed under.
var counterDefs = map[string][2]string{
	"retries":     {"elga_client_retries_total", ""},
	"compactions": {"elga_graph_compactions_total", ""},
	"remoteBytes": {"elga_scatter_remote_bytes_total", ""},
	"remoteMsgs":  {"elga_scatter_remote_msgs_total", ""},
	"framesOut":   {"elga_transport_frames_out_total", `role="agent"`},
	"connWrites":  {"elga_transport_conn_writes_total", `role="agent"`},
	"stalls":      {"elga_transport_enqueue_stalls_total", ""},
	"retransmits": {"elga_transport_retransmits_total", ""},
	"migBytes":    {"elga_migration_bytes_total", ""},
	"ckptBytes":   {"elga_ckpt_bytes_total", ""},
	"ckptCount":   {"elga_ckpt_total", ""},
	"ckptDrops":   {"elga_ckpt_dropped_total", ""},
}

// Re-registering a histogram returns the live handle the program
// observes into.
func histograms(reg *metrics.Registry) map[string]metrics.HistogramSnapshot {
	out := make(map[string]metrics.HistogramSnapshot, len(histDefs))
	for k, d := range histDefs {
		out[k] = reg.Histogram(d.name, "", d.labels, d.bounds).Snapshot()
	}
	return out
}

func counters(reg *metrics.Registry) (map[string]float64, map[string]map[string]float64) {
	s := scrape(reg)
	out := make(map[string]float64, len(counterDefs))
	for k, d := range counterDefs {
		out[k] = sumFamily(s, d[0], d[1])
	}
	return out, s
}

// histDelta returns b minus a for two snapshots of one histogram.
func histDelta(a, b metrics.HistogramSnapshot) metrics.HistogramSnapshot {
	if len(a.Counts) != len(b.Counts) {
		return b
	}
	d := metrics.HistogramSnapshot{Bounds: b.Bounds, Counts: make([]uint64, len(b.Counts)),
		Count: b.Count - a.Count, Sum: b.Sum - a.Sum}
	for i := range b.Counts {
		d.Counts[i] = b.Counts[i] - a.Counts[i]
	}
	return d
}

// window is the state of one cluster's instruments when measuring began.
type window struct {
	hists    map[string]metrics.HistogramSnapshot
	counters map[string]float64
	mem      runtime.MemStats
}

// layerAcc sums what every measured window saw. A workload that boots a
// fresh cluster per operation closes one window per cluster.
type layerAcc struct {
	hists       map[string]metrics.HistogramSnapshot
	counters    map[string]float64
	mallocs     uint64
	gcs         uint64
	bytesW      float64 // Σ bytes-per-edge × copies, at window close
	copies      float64
	cvSum       float64
	cvN         int
	restoreSecs []float64
}

func newLayerAcc() *layerAcc {
	return &layerAcc{hists: make(map[string]metrics.HistogramSnapshot), counters: make(map[string]float64)}
}

func openWindow(reg *metrics.Registry) *window {
	w := &window{hists: histograms(reg)}
	w.counters, _ = counters(reg)
	runtime.ReadMemStats(&w.mem)
	return w
}

// close folds the window's deltas, and the cluster's state at its end,
// into acc.
func (w *window) close(acc *layerAcc, reg *metrics.Registry, c *cluster.Cluster) {
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	acc.mallocs += mem.Mallocs - w.mem.Mallocs
	acc.gcs += uint64(mem.NumGC - w.mem.NumGC)
	for k, h := range histograms(reg) {
		d := histDelta(w.hists[k], h)
		if prev, ok := acc.hists[k]; ok {
			if merged, err := prev.Merge(d); err == nil {
				d = merged
			}
		}
		acc.hists[k] = d
	}
	now, s := counters(reg)
	for k, v := range now {
		acc.counters[k] += v - w.counters[k]
	}
	for labels, bpe := range s["elga_graph_bytes_per_edge"] {
		n := s["elga_agent_edge_copies"][labels]
		acc.bytesW += bpe * n
		acc.copies += n
	}
	for _, secs := range s["elga_ckpt_restore_seconds"] {
		if secs > 0 {
			acc.restoreSecs = append(acc.restoreSecs, secs)
		}
	}
	var copies []float64
	for _, n := range c.EdgeCounts() {
		copies = append(copies, float64(n))
	}
	if cv, ok := coefVar(copies); ok {
		acc.cvSum += cv
		acc.cvN++
	}
}

// readings turns the accumulated windows into the counter-derived
// ("R") per-layer metrics. perStep divides by the supersteps measured,
// or by the operations when the workload runs no supersteps.
func (acc *layerAcc) readings(steps, ops int, inboxMax float64) map[string]float64 {
	per := float64(steps)
	if per == 0 {
		per = float64(ops)
	}
	if per == 0 {
		per = 1
	}
	c, h := acc.counters, acc.hists
	r := map[string]float64{
		"client.retries":                c["retries"],
		"graph.compactions":             c["compactions"],
		"wire.remote_bytes_per_step":    c["remoteBytes"] / per,
		"transport.frames_out_per_step": c["framesOut"] / per,
		"transport.enqueue_stalls":      c["stalls"],
		"transport.retransmits":         c["retransmits"],
		"transport.reqrep_rtt_us_p50":   h["rtt"].Quantile(0.5) * 1e6,
		"agent.compute_ms_p50":          h["compute"].Quantile(0.5) * 1e3,
		"agent.compute_ms_p90":          h["compute"].Quantile(0.9) * 1e3,
		"agent.combine_ms_p50":          h["combine"].Quantile(0.5) * 1e3,
		"agent.combine_count":           float64(h["combine"].Count),
		"agent.barrier_wait_ms_p50":     h["barrier"].Quantile(0.5) * 1e3,
		"agent.inbox_depth_max":         inboxMax,
		"agent.frontier_size":           h["frontier"].Mean(),
		"agent.migration_bytes":         c["migBytes"],
		"directory.superstep_ms_p50":    h["dirstep"].Quantile(0.5) * 1e3,
		"checkpoint.build_ms_p50":       h["ckptbuild"].Quantile(0.5) * 1e3,
		"checkpoint.drops":              c["ckptDrops"],
		"cluster.allocs_per_step":       float64(acc.mallocs) / per,
		"cluster.gc_cycles_per_step":    float64(acc.gcs) / per,
	}
	if c["connWrites"] > 0 {
		r["transport.frames_per_write"] = c["framesOut"] / c["connWrites"]
	}
	if acc.copies > 0 {
		r["graph.bytes_per_edge"] = acc.bytesW / acc.copies
	}
	if acc.cvN > 0 {
		r["agent.edge_copies_cv"] = acc.cvSum / float64(acc.cvN)
	}
	if c["ckptCount"] > 0 {
		r["checkpoint.bytes_per_snapshot"] = c["ckptBytes"] / c["ckptCount"]
	}
	if len(acc.restoreSecs) > 0 {
		r["checkpoint.restore_ms"] = mean(acc.restoreSecs) * 1e3
	}
	// The coordinator's step time less the agents' compute and combine
	// time per agent-step: what the barrier round-trip adds.
	if ds, cs := h["dirstep"], h["compute"]; ds.Count > 0 && cs.Count > 0 {
		r["directory.barrier_share_ms"] = (ds.Mean() - (cs.Sum+h["combine"].Sum)/float64(cs.Count)) * 1e3
	}
	return r
}

// msgBatchSize is the vertex-message batch one agent sends another per
// superstep, from the traced run's scatter ledger; streamer-sized when
// the workload scattered nothing.
func (acc *layerAcc) msgBatchSize(steps int) int {
	if steps > 0 {
		if n := int(acc.counters["remoteMsgs"]) / (steps * agents * (agents - 1)); n > 0 {
			return n
		}
	}
	return 1024
}

// replicaFn returns the replica count routing gives each vertex once all
// of el's degrees are in the sketch, capped at the cluster size.
func replicaFn(cfg config.Config, el graph.EdgeList) func(graph.VertexID) int {
	sk := cfg.NewSketch()
	for _, e := range el {
		sk.Add(uint64(e.Src))
		sk.Add(uint64(e.Dst))
	}
	return func(v graph.VertexID) int { return min(cfg.Replicas(sk.Estimate(uint64(v))), agents) }
}

// probeLayers times single layers of the program outside the cluster,
// on the workload's own edges: store insert and neighbour scan, edge
// routing against sketch estimates, vertex-message encode and decode at
// batch size batch, and the single-threaded reference algorithm.
func probeLayers(tr *recorder, in *input, cfg config.Config, batch int) {
	el := in.edges

	h := tr.begin("graph.add_edge")
	store := graph.NewStore()
	for _, e := range el {
		store.AddEdge(e.Src, e.Dst, graph.Out)
		store.AddEdge(e.Src, e.Dst, graph.In)
	}
	tr.endN(h, int64(2*len(el)), 0)

	h = tr.begin("graph.neighbor_scan")
	var scanned int64
	for _, v := range store.VertexList() {
		for it := store.OutCursor(v); ; {
			if _, ok := it.Next(); !ok {
				break
			}
			scanned++
		}
	}
	tr.endN(h, scanned, 0)

	members := make([]consistent.AgentID, agents)
	for i := range members {
		members[i] = consistent.AgentID(i + 1)
	}
	ring := consistent.New(members, consistent.Options{Virtual: cfg.Virtual, Hash: cfg.Hash})
	replicas := replicaFn(cfg, el)
	h = tr.begin("route.edge_owner")
	for _, e := range el {
		ring.EdgeOwner(uint64(e.Src), uint64(e.Dst), replicas(e.Src))
		ring.EdgeOwner(uint64(e.Dst), uint64(e.Src), replicas(e.Dst))
	}
	tr.endN(h, int64(2*len(el)), 0)

	msgs := make([]wire.VertexMsg, len(el))
	for i, e := range el {
		msgs[i] = wire.VertexMsg{Target: e.Dst, Via: e.Src, Value: wire.Word(i)}
	}
	// Frame buffers are allocated untimed: the program encodes into
	// pooled frames.
	var frames [][]byte
	for lo := 0; lo < len(msgs); lo += batch {
		frames = append(frames, make([]byte, 0, 16+24*batch))
	}
	h = tr.begin("wire.encode")
	for i := range frames {
		lo := i * batch
		b := wire.VertexMsgBatch{Step: 1, Msgs: msgs[lo:min(lo+batch, len(msgs))]}
		frames[i] = wire.AppendVertexMsgBatch(frames[i], &b)
	}
	tr.endN(h, int64(len(msgs)), 0)
	var dec wire.VertexMsgBatch
	h = tr.begin("wire.decode")
	for _, f := range frames {
		_ = wire.DecodeVertexMsgBatchInto(&dec, f) // frames were just encoded
	}
	tr.endN(h, int64(len(msgs)), 0)

	h = tr.begin("algorithm.run")
	res := algorithm.Run(in.refProg, el, in.refOpts)
	tr.endN(h, int64(res.Steps), 0)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// coefVar is the standard deviation over the mean.
func coefVar(xs []float64) (float64, bool) {
	m := mean(xs)
	if len(xs) < 2 || m == 0 {
		return 0, false
	}
	var ss float64
	for _, x := range xs {
		ss += (x - m) * (x - m)
	}
	return math.Sqrt(ss/float64(len(xs))) / m, true
}

package main

// metricDef names one reported metric with its unit and direction. The
// two catalogs below are the benchmark's contract: BENCHMARK.json lists
// the same names (TestCatalogMatchesBenchmarkJSON keeps them in step), an
// untraced run reports every endToEnd metric and a traced run every
// perLayer one, on every workload.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the numbers a user of the system sees. op_ms is the
// latency of the workload's unit operation: a PageRank superstep
// (pagerank-split), a stream-and-seal pass (ingest-stream), a one-edge
// batch to its checked answer (incremental-wcc), a membership change
// with its seal (restore-rescale). Its 90th percentile does not repeat
// within a tenth from run to run on a 2-vCPU host, so it is a per-layer
// number.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"heap_mb", "MiB", "lower"},
	{"op_ms_p50", "ms", "lower"},
}

// spanNames are the benchmark's own spans: one per public call it makes
// into the program, plus the setup/op/check frames that group them and
// the out-of-cluster layer probes. Each gets a self-time metric.
var spanNames = []string{
	"setup", "op", "check",
	"cluster.new", "cluster.shutdown",
	"streamer.send_batch", "streamer.flush",
	"client.seal", "client.run", "client.query",
	"cluster.kill_agent", "wait.eviction", "cluster.restart_agent",
	"cluster.add_agent", "cluster.remove_agent",
	"graph.add_edge", "graph.neighbor_scan", "route.edge_owner",
	"wire.encode", "wire.decode", "algorithm.run",
}

// layerDefs are the per-layer metrics other than self times and tracing
// overhead, in report order.
var layerDefs = []metricDef{
	// The tail of op_ms and the paper's end-to-end figures under their
	// own names, from the untraced half of a traced run; 0 where the
	// workload has no such operation.
	{"op_ms_p90", "ms", "lower"},
	{"superstep_ms_p50", "ms", "lower"},
	{"superstep_ms_p90", "ms", "lower"},
	{"ingest_edges_per_s", "edges/s", "higher"},
	{"batch_result_ms_p50", "ms", "lower"},
	{"batch_result_ms_p95", "ms", "lower"},
	{"restore_ms_p50", "ms", "lower"},
	{"rescale_ms_p50", "ms", "lower"},
	{"ops_failed_ratio", "ratio", "lower"},

	{"client.run_ms", "ms", "lower"},
	{"client.run_outside_steps_ms", "ms", "lower"},
	{"client.seal_ms", "ms", "lower"},
	{"client.query_us", "us", "lower"},
	{"client.retries", "count", "lower"},
	{"streamer.send_ns_per_edge", "ns", "lower"},
	{"streamer.flush_ms", "ms", "lower"},
	{"route.edge_owner_ns", "ns", "lower"},
	{"route.split_vertices", "count", "lower"},
	{"graph.add_edge_ns", "ns", "lower"},
	{"graph.neighbor_scan_ns_per_edge", "ns", "lower"},
	{"graph.bytes_per_edge", "B", "lower"},
	{"graph.compactions", "count", "lower"},
	{"algorithm.reference_step_ms", "ms", "lower"},
	{"wire.encode_ns_per_msg", "ns", "lower"},
	{"wire.decode_ns_per_msg", "ns", "lower"},
	{"wire.remote_bytes_per_step", "B", "lower"},
	{"transport.frames_out_per_step", "count", "lower"},
	{"transport.frames_per_write", "count", "higher"},
	{"transport.enqueue_stalls", "count", "lower"},
	{"transport.retransmits", "count", "lower"},
	{"transport.reqrep_rtt_us_p50", "us", "lower"},
	{"agent.compute_ms_p50", "ms", "lower"},
	{"agent.compute_ms_p90", "ms", "lower"},
	{"agent.combine_ms_p50", "ms", "lower"},
	{"agent.combine_count", "count", "lower"},
	{"agent.barrier_wait_ms_p50", "ms", "lower"},
	{"agent.edge_copies_cv", "ratio", "lower"},
	{"agent.inbox_depth_max", "count", "lower"},
	{"agent.frontier_size", "count", "lower"},
	{"agent.add_agent_ms", "ms", "lower"},
	{"agent.remove_agent_ms", "ms", "lower"},
	{"agent.migration_bytes", "B", "lower"},
	{"directory.superstep_ms_p50", "ms", "lower"},
	{"directory.barrier_share_ms", "ms", "lower"},
	{"checkpoint.build_ms_p50", "ms", "lower"},
	{"checkpoint.bytes_per_snapshot", "B", "lower"},
	{"checkpoint.drops", "count", "lower"},
	{"checkpoint.restore_ms", "ms", "lower"},
	{"checkpoint.restart_agent_ms", "ms", "lower"},
	{"cluster.allocs_per_step", "count", "lower"},
	{"cluster.gc_cycles_per_step", "count", "lower"},
}

// perLayer is the full traced-run catalog: layerDefs, then the tracing
// overhead of every end-to-end metric, then every span's mean self time.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	out := append([]metricDef(nil), layerDefs...)
	for _, d := range endToEnd {
		out = append(out, metricDef{"trace_overhead." + d.name, d.unit, "lower"})
	}
	for _, s := range spanNames {
		out = append(out, metricDef{selfMetric(s), "ms", "lower"})
	}
	return out
}

func selfMetric(span string) string { return "self." + span + "_ms" }

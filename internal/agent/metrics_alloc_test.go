package agent

import (
	"testing"
	"time"

	"elga/internal/algorithm"
	"elga/internal/graph"
	"elga/internal/metrics"
)

// TestSuperstepAllocsWithMetricsEnabled re-asserts the steady-state
// superstep ceiling with live metric handles installed: instrumentation
// sits at phase boundaries, so enabling it must not add per-vertex or
// per-message allocations. The explicit Observe in the loop stands in for
// the one maybeReady issues per phase.
func TestSuperstepAllocsWithMetricsEnabled(t *testing.T) {
	cfg := allocTestConfig()
	const n = 256
	a := newLoopbackAgent(t, cfg, n)
	a.initMetrics(metrics.NewRegistry())
	if a.m.phaseCompute == nil {
		t.Fatal("initMetrics left nil handles")
	}
	for i := 0; i < n; i++ {
		src, dst := graph.VertexID(i), graph.VertexID((i+1)%n)
		a.store.AddEdge(src, dst, graph.Out)
		a.store.AddEdge(src, dst, graph.In)
	}
	installRun(a, algorithm.PageRank{}, n)
	advanceCompute(a, 0)
	advanceCompute(a, 1)
	advanceCompute(a, 2)

	step := uint32(3)
	allocs := testing.AllocsPerRun(20, func() {
		start := time.Now()
		advanceCompute(a, step)
		a.m.phaseCompute.Observe(time.Since(start).Seconds())
		step++
	})
	if allocs > 16 {
		t.Fatalf("metered superstep allocates %v allocs, want <= 16 (same ceiling as unmetered)", allocs)
	}
	if s := a.m.phaseCompute.Snapshot(); s.Count < 20 {
		t.Fatalf("phase histogram missed observations: %+v", s)
	}
}

// benchmarkSuperstepMetered is benchmarkSuperstep with the metrics
// subsystem either absent (nil handles, the disabled baseline) or live.
// Comparing the two variants bounds the instrumentation's hot-path cost —
// the acceptance criterion is ≤1% and zero extra allocs/op.
func benchmarkSuperstepMetered(b *testing.B, metered bool) {
	a := newBenchAgent(b)
	if metered {
		a.initMetrics(metrics.NewRegistry())
	}

	SetComputeParallelism(1, 1)
	defer SetComputeParallelism(0, 0)

	advanceCompute(a, 0)
	advanceCompute(a, 1)
	advanceCompute(a, 2)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		advanceCompute(a, uint32(i+3))
		// nil-safe no-op when unmetered: the disabled cost is this branch.
		a.m.phaseCompute.Observe(time.Since(start).Seconds())
	}
}

func BenchmarkSuperstepMetricsOff(b *testing.B) { benchmarkSuperstepMetered(b, false) }
func BenchmarkSuperstepMetricsOn(b *testing.B)  { benchmarkSuperstepMetered(b, true) }

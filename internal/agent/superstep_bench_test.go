package agent

import (
	"math/rand"
	"testing"

	"elga/internal/algorithm"
	"elga/internal/checkpoint"
	"elga/internal/events"
	"elga/internal/graph"
	"elga/internal/profile"
)

// newBenchAgent builds the superstep benchmark fixture: a loopback agent
// over a random 4096-vertex graph with a live PageRank run. A ring edge
// keeps every vertex connected; three random edges give scatter fan-out
// and skew.
func newBenchAgent(b *testing.B) *Agent {
	const n = 4096
	a := newLoopbackAgent(b, allocTestConfig(), n)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < n; i++ {
		src := graph.VertexID(i)
		dsts := [4]graph.VertexID{
			graph.VertexID((i + 1) % n),
			graph.VertexID(rng.Intn(n)),
			graph.VertexID(rng.Intn(n)),
			graph.VertexID(rng.Intn(n)),
		}
		for _, dst := range dsts {
			a.store.AddEdge(src, dst, graph.Out)
			a.store.AddEdge(src, dst, graph.In)
		}
	}
	installRun(a, algorithm.PageRank{}, n)
	return a
}

// superstepPlanes selects the planes a superstep benchmark arms.
type superstepPlanes struct {
	// ckpt arms durable checkpointing with a cadence that never fires.
	ckpt bool
	// comm arms the repartitioner's scatter-traffic ledger.
	comm bool
	// events arms the structured event journal.
	events bool
	// profile enables the profiling plane with no capture in flight.
	profile bool
}

// benchmarkSuperstep measures one full PageRank compute phase (gather →
// update → scatter → local delivery) on a loopback agent over a random
// 4096-vertex graph, with the phase worker pool pinned to the given size.
// workers=1 is the sequential baseline (runSharded runs inline); larger
// counts exercise the shard/merge machinery. On a multi-core host the
// parallel variants show the speedup; on a single-core host they measure
// pool overhead instead — record numbers honestly either way.
func benchmarkSuperstep(b *testing.B, workers int) {
	benchmarkSuperstepPlanes(b, workers, superstepPlanes{})
}

// benchmarkSuperstepPlanes is benchmarkSuperstep with planes armed. Each
// iteration runs the compute phase plus the armed planes' post-vote
// triggers exactly as maybeReady's tail does.
func benchmarkSuperstepPlanes(b *testing.B, workers int, p superstepPlanes) {
	a := newBenchAgent(b)
	if p.ckpt {
		sink, err := checkpoint.NewDirSink(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		a.ckpt.cfg = checkpoint.Config{Enabled: true, Key: "bench", EverySteps: 1 << 30}
		a.ckpt.writer = checkpoint.NewWriter(sink, "bench")
		b.Cleanup(a.closeCheckpoint)
	}
	if p.comm {
		a.opts.Repartition = true
		a.initComm()
	}
	if p.events {
		a.journal = events.NewJournal("agent-bench", events.Config{Enabled: true})
	}
	if p.profile {
		a.prof.cfg = profile.Resolve(&profile.Config{Enabled: true, AutoCapture: true})
	}
	step := func(s uint32) {
		advanceCompute(a, s)
		if p.ckpt {
			a.maybeCheckpointStep()
		}
		if p.profile {
			a.maybeProfileStep()
		}
	}

	SetComputeParallelism(workers, 1)
	defer SetComputeParallelism(0, 0)

	// Warm: init pass plus two steady steps so every pool (batchers,
	// shards, mail maps and entries) reaches steady state.
	step(0)
	step(1)
	step(2)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(uint32(i + 3))
	}
}

func BenchmarkSuperstepPageRankSeq(b *testing.B)  { benchmarkSuperstep(b, 1) }
func BenchmarkSuperstepPageRankPar2(b *testing.B) { benchmarkSuperstep(b, 2) }
func BenchmarkSuperstepPageRankPar4(b *testing.B) { benchmarkSuperstep(b, 4) }

// TestSuperstepAllocCeiling pins the steady-state sequential superstep at
// 3 allocs/op (the ack group, its completion closure, and mailbox map
// slack) with every plane off, each plane armed alone, and all armed.
// Neighbour iteration must contribute zero: the CSR+delta store's
// value-type cursors live on the stack, so the ceiling is how CI catches
// a cursor or tail structure escaping to the heap. Skipped under -race,
// whose instrumentation allocates on its own.
func TestSuperstepAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is unreliable under -race")
	}
	for _, tc := range []struct {
		name string
		p    superstepPlanes
	}{
		{"base", superstepPlanes{}},
		// A non-firing checkpoint cadence costs one increment and one
		// compare; snapshot building overlaps the barrier wait instead.
		{"checkpoint-armed", superstepPlanes{ckpt: true}},
		// The ledger's window map is cleared in place between digests,
		// so steady-state accounting re-inserts warm keys into retained
		// buckets.
		{"comm-accounting", superstepPlanes{comm: true}},
		// Events fire only on control-plane transitions, never in the
		// compute phase.
		{"events-armed", superstepPlanes{events: true}},
		// With no capture in flight maybeProfileStep is one flag check.
		{"profile-armed", superstepPlanes{profile: true}},
		{"all-planes-armed", superstepPlanes{ckpt: true, comm: true, events: true, profile: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := testing.Benchmark(func(b *testing.B) { benchmarkSuperstepPlanes(b, 1, tc.p) })
			if allocs := res.AllocsPerOp(); allocs > 3 {
				t.Fatalf("superstep (%s) allocates %d allocs/op, ceiling is 3", tc.name, allocs)
			}
		})
	}
}

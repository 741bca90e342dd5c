package cluster

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"elga/internal/algorithm"
	"elga/internal/checkpoint"
	"elga/internal/client"
	"elga/internal/config"
	"elga/internal/consistent"
	"elga/internal/events"
	"elga/internal/graph"
	"elga/internal/route"
	"elga/internal/sketch"
	"elga/internal/wire"
)

// bucketMoved reports whether any cell's replica count differs between
// two sketches, read from their encodings — the test's own statement of
// the seal's skip rule, independent of sketch.Merge's report.
func bucketMoved(t *testing.T, cfg config.Config, before, after *sketch.Sketch) bool {
	t.Helper()
	b, err := before.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	a, err := after.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for off := 16; off < len(a); off += 4 {
		if cfg.Replicas(uint64(binary.LittleEndian.Uint32(b[off:]))) !=
			cfg.Replicas(uint64(binary.LittleEndian.Uint32(a[off:]))) {
			return true
		}
	}
	return false
}

// coordEpoch reads the coordinator's published view epoch.
func coordEpoch(c *Cluster) uint64 { return c.Coordinator().StatsMap()["epoch"] }

// checkPlacement asserts that every copy each agent holds is owned by
// that agent under a router built from the membership and the reference
// sketch — not the sketch the agents last received — and that no copy is
// lost or duplicated.
func checkPlacement(t *testing.T, c *Cluster, ref *sketch.Sketch, edges int, tag string) {
	t.Helper()
	skBytes, err := ref.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	infos := make([]wire.AgentInfo, 0, c.NumAgents())
	for _, a := range c.Agents() {
		infos = append(infos, wire.AgentInfo{ID: a.ID(), Addr: a.Addr()})
	}
	r := route.New(c.Config())
	if _, err := r.Update(&wire.View{Epoch: 1, Agents: infos, Sketch: skBytes}); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, a := range c.Agents() {
		copies, err := a.HeldCopies(10 * time.Second)
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		total += len(copies)
		for _, cp := range copies {
			owner, ok := r.CopyOwner(wire.EdgeChange{Src: cp.Src, Dst: cp.Dst, Dir: cp.Dir})
			if !ok || owner != consistent.AgentID(a.ID()) {
				t.Fatalf("%s: agent %d holds copy (%d,%d,%v) owned by %d under the reference sketch",
					tag, a.ID(), cp.Src, cp.Dst, cp.Dir, owner)
			}
		}
	}
	if total != 2*edges {
		t.Fatalf("%s: %d copies held, want %d", tag, total, 2*edges)
	}
}

// TestSealPlacementMatchesReferenceSketch is the seal's invariant test at
// replication threshold 32: one-edge batches push three hubs across
// replica-count boundaries while other batches move nothing. After every
// seal the epoch must move exactly when the test's reference sketch
// (computed from the edges sent) moved a cell's replica count, and every
// held copy must sit where that reference routes it. A from-scratch
// PageRank then matches the single-machine reference.
func TestSealPlacementMatchesReferenceSketch(t *testing.T) {
	cfg := testConfig()
	cfg.ReplicationThreshold = 32
	cfg.MaxReplicas = 4
	c, err := New(Options{Config: cfg, Agents: 4, Events: &events.Config{Enabled: true, Timeline: 4096}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	rng := rand.New(rand.NewSource(32))

	ref := cfg.NewSketch()
	seen := make(map[graph.Edge]bool)
	var el graph.EdgeList
	add := func(u, v graph.VertexID) bool {
		e := graph.Edge{Src: u, Dst: v}
		if u == v || seen[e] {
			return false
		}
		seen[e] = true
		el = append(el, e)
		// Each inserted edge counts once at its source (Out copy) and
		// once at its destination (In copy).
		ref.Add(uint64(u))
		ref.Add(uint64(v))
		return true
	}
	leaf := func() graph.VertexID { return graph.VertexID(10 + rng.Intn(190)) }
	// Hubs 0, 1, 2 start a few edges below the 32/64/96 boundaries.
	for hub, deg := range []int{28, 60, 92} {
		for n := 0; n < deg; {
			if add(graph.VertexID(hub), leaf()) {
				n++
			}
		}
	}
	for n := 0; n < 60; {
		if add(leaf(), leaf()) {
			n++
		}
	}
	if err := c.Load(el); err != nil {
		t.Fatal(err)
	}
	checkPlacement(t, c, ref, len(el), "load")

	before, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	var neutral, crossing int
	for i := 0; i < 60; i++ {
		before := ref.Clone()
		for {
			u := leaf()
			if i%4 < 3 {
				u = graph.VertexID(i % 4) // a hub
			}
			if add(u, leaf()) {
				break
			}
		}
		e := el[len(el)-1]
		moved := bucketMoved(t, cfg, before, ref)
		epoch := coordEpoch(c)
		if err := c.ApplyBatch(graph.Batch{{Action: graph.Insert, Src: e.Src, Dst: e.Dst}}); err != nil {
			t.Fatal(err)
		}
		tag := fmt.Sprintf("batch %d (%d->%d, moved=%v)", i, e.Src, e.Dst, moved)
		want := epoch
		if moved {
			want++
			crossing++
		} else {
			neutral++
		}
		if got := coordEpoch(c); got != want {
			t.Fatalf("%s: epoch %d -> %d, want %d", tag, epoch, got, want)
		}
		checkPlacement(t, c, ref, len(el), tag)
	}
	t.Logf("%d neutral and %d crossing seals", neutral, crossing)
	if neutral < 10 || crossing < 3 {
		t.Fatalf("schedule ran %d neutral and %d crossing seals; want >= 10 and >= 3", neutral, crossing)
	}
	// Every rebalance the seals paid for is on the timeline as a sketch
	// migration, and nothing else opened one.
	st, err := c.StatusEvents(4096)
	if err != nil {
		t.Fatal(err)
	}
	rounds := 0
	for i := range st.Timeline {
		r := &st.Timeline[i]
		if r.Kind != events.KindMigrationStart || r.Seq <= before.EventSeq {
			continue
		}
		if f, ok := r.Field("cause"); !ok || f.Value() != "sketch" {
			t.Fatalf("migration-start #%d has cause %q, want sketch", r.Seq, f.Value())
		}
		rounds++
	}
	if rounds != crossing {
		t.Fatalf("%d sketch migration rounds on the timeline, want %d", rounds, crossing)
	}

	if _, err := c.Run(client.RunSpec{Algo: "pagerank", MaxSteps: 10, FromScratch: true}); err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, c, algorithm.PageRank{}, el, algorithm.RunOptions{MaxSteps: 10}, 1e-8)
}

// TestAgentCheckpointBatchIDFollowsNeutralSeals pins the agents' batch
// clock to the TBatchOpen payload: seals that move no replica count
// broadcast no view, yet an agent checkpoint taken afterwards must carry
// the coordinator's batch ID.
func TestAgentCheckpointBatchIDFollowsNeutralSeals(t *testing.T) {
	cfg := testConfig()
	cfg.ReplicationThreshold = 256
	cfg.HeartbeatInterval = 20 * time.Millisecond
	dur := &checkpoint.Config{Enabled: true, Dir: t.TempDir(), Interval: 50 * time.Millisecond}
	c, err := New(Options{Config: cfg, Agents: 2, Durability: dur})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	if err := c.Load(ringGraph(20)); err != nil {
		t.Fatal(err)
	}
	epoch := coordEpoch(c)
	for i := 0; i < 5; i++ {
		if err := c.ApplyBatch(graph.Batch{{Action: graph.Insert, Src: graph.VertexID(i), Dst: graph.VertexID(i + 10)}}); err != nil {
			t.Fatal(err)
		}
	}
	if got := coordEpoch(c); got != epoch {
		t.Fatalf("neutral seals moved the epoch %d -> %d", epoch, got)
	}
	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.BatchID < 6 {
		t.Fatalf("coordinator batch ID %d after 6 seals", st.BatchID)
	}
	sink, err := checkpoint.Open(*dur)
	if err != nil {
		t.Fatal(err)
	}
	for slot := 0; slot < c.NumAgents(); slot++ {
		key := fmt.Sprintf("agent-%d", slot)
		// Snapshots land asynchronously (a busy writer drops one and the
		// timed cadence catches up), so poll the committed manifest.
		var got uint64
		deadline := time.Now().Add(10 * time.Second)
		for {
			if s, err := checkpoint.Load(sink, key); err == nil && s != nil {
				got = s.Meta.BatchID
				if got == st.BatchID {
					break
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: checkpoint BatchID %d, coordinator's %d", key, got, st.BatchID)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
}

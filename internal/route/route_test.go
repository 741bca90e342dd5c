package route

import (
	"testing"

	"elga/internal/config"
	"elga/internal/consistent"
	"elga/internal/graph"
	"elga/internal/sketch"
	"elga/internal/wire"
)

func cfg() config.Config {
	c := config.Default()
	c.SketchWidth = 256
	c.SketchDepth = 4
	c.Virtual = 8
	c.ReplicationThreshold = 10
	c.MaxReplicas = 4
	return c
}

func view(t *testing.T, epoch uint64, ids []uint64, sk *sketch.Sketch) *wire.View {
	t.Helper()
	v := &wire.View{Epoch: epoch, BatchID: epoch, N: 100}
	for _, id := range ids {
		v.Agents = append(v.Agents, wire.AgentInfo{ID: id, Addr: "addr-" + string(rune('a'+id))})
	}
	if sk != nil {
		data, err := sk.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		v.Sketch = data
	}
	return v
}

func TestEmptyRouter(t *testing.T) {
	r := New(cfg())
	if r.NumAgents() != 0 || r.Epoch() != 0 {
		t.Fatal("fresh router not empty")
	}
	if _, ok := r.EdgeOwner(1, 2); ok {
		t.Error("EdgeOwner on empty router")
	}
	if _, ok := r.Master(1); ok {
		t.Error("Master on empty router")
	}
}

func TestUpdateInstallsView(t *testing.T) {
	r := New(cfg())
	changed, err := r.Update(view(t, 3, []uint64{1, 2, 3}, nil))
	if err != nil || !changed {
		t.Fatalf("update: %v %v", changed, err)
	}
	if r.Epoch() != 3 || r.NumAgents() != 3 || r.N() != 100 {
		t.Fatalf("router state: epoch=%d agents=%d", r.Epoch(), r.NumAgents())
	}
	addr, ok := r.AddrOf(2)
	if !ok || addr == "" {
		t.Error("AddrOf failed")
	}
	if !r.IsMember(1) || r.IsMember(99) {
		t.Error("IsMember wrong")
	}
}

func TestStaleViewIgnored(t *testing.T) {
	r := New(cfg())
	if _, err := r.Update(view(t, 5, []uint64{1, 2}, nil)); err != nil {
		t.Fatal(err)
	}
	changed, err := r.Update(view(t, 4, []uint64{9}, nil))
	if err != nil || changed {
		t.Fatal("stale view applied")
	}
	if r.NumAgents() != 2 {
		t.Fatal("membership changed by stale view")
	}
}

func TestBadSketchRejected(t *testing.T) {
	r := New(cfg())
	v := view(t, 1, []uint64{1}, nil)
	v.Sketch = []byte{1, 2, 3}
	if _, err := r.Update(v); err == nil {
		t.Error("corrupt sketch accepted")
	}
}

func TestReplicasFollowSketch(t *testing.T) {
	c := cfg()
	r := New(c)
	sk := c.NewSketch()
	// Vertex 7 has degree 35 -> ceil(35/10) = 4 replicas (cap 4).
	sk.AddN(7, 35)
	if _, err := r.Update(view(t, 1, []uint64{1, 2, 3, 4, 5, 6}, sk)); err != nil {
		t.Fatal(err)
	}
	if got := r.Replicas(7); got != 4 {
		t.Errorf("Replicas(7) = %d, want 4", got)
	}
	if !r.Split(7) {
		t.Error("vertex 7 should be split")
	}
	if r.Split(8) {
		t.Error("low-degree vertex should not split")
	}
	set := r.ReplicaSet(7)
	if len(set) != 4 {
		t.Fatalf("ReplicaSet size %d", len(set))
	}
	m, ok := r.Master(7)
	if !ok || m != set[0] {
		t.Error("Master should be ReplicaSet[0]")
	}
	if r.DegreeEstimate(7) < 35 {
		t.Error("degree estimate underestimates")
	}
}

func TestReplicasCappedByRingSize(t *testing.T) {
	c := cfg()
	r := New(c)
	sk := c.NewSketch()
	sk.AddN(7, 1000)
	if _, err := r.Update(view(t, 1, []uint64{1, 2}, sk)); err != nil {
		t.Fatal(err)
	}
	if got := r.Replicas(7); got != 2 {
		t.Errorf("Replicas capped at ring size: got %d", got)
	}
}

func TestCopyOwnerKeysByDirection(t *testing.T) {
	r := New(cfg())
	if _, err := r.Update(view(t, 1, []uint64{1, 2, 3, 4}, nil)); err != nil {
		t.Fatal(err)
	}
	outOwner, _ := r.CopyOwner(wire.EdgeChange{Src: 10, Dst: 20, Dir: graph.Out})
	wantOut, _ := r.EdgeOwner(10, 20)
	if outOwner != wantOut {
		t.Error("Out copy should key on Src")
	}
	inOwner, _ := r.CopyOwner(wire.EdgeChange{Src: 10, Dst: 20, Dir: graph.In})
	wantIn, _ := r.EdgeOwner(20, 10)
	if inOwner != wantIn {
		t.Error("In copy should key on Dst")
	}
}

func TestAnyReplicaIsMemberOfSet(t *testing.T) {
	c := cfg()
	r := New(c)
	sk := c.NewSketch()
	sk.AddN(5, 25)
	if _, err := r.Update(view(t, 1, []uint64{1, 2, 3, 4, 5}, sk)); err != nil {
		t.Fatal(err)
	}
	set := map[consistent.AgentID]bool{}
	for _, a := range r.ReplicaSet(5) {
		set[a] = true
	}
	for salt := uint64(0); salt < 20; salt++ {
		a, ok := r.AnyReplica(5, salt)
		if !ok || !set[a] {
			t.Fatalf("AnyReplica returned non-replica %d", a)
		}
	}
}

func TestConfigAccessor(t *testing.T) {
	c := cfg()
	r := New(c)
	if r.Config().Virtual != c.Virtual {
		t.Error("Config accessor wrong")
	}
}

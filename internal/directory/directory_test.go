package directory

import (
	"testing"
	"time"

	"elga/internal/autoscale"
	"elga/internal/config"
	"elga/internal/events"
	"elga/internal/sketch"
	"elga/internal/transport"
	"elga/internal/wire"
)

func testCfg() config.Config {
	cfg := config.Default()
	cfg.SketchWidth = 128
	cfg.SketchDepth = 2
	cfg.Virtual = 4
	cfg.RequestTimeout = 5 * time.Second
	return cfg
}

func startMaster(t *testing.T, nw transport.Network) *Master {
	t.Helper()
	m, err := StartMaster(nw, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

func startDir(t *testing.T, nw transport.Network, masterAddr string) *Directory {
	t.Helper()
	d, err := Start(Options{Config: testCfg(), Network: nw, MasterAddr: masterAddr})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d.Close() })
	return d
}

func TestFirstDirectoryIsCoordinator(t *testing.T) {
	nw := transport.NewInproc()
	m := startMaster(t, nw)
	d1 := startDir(t, nw, m.Addr())
	if !d1.IsCoordinator() {
		t.Fatal("first directory should coordinate")
	}
	d2 := startDir(t, nw, m.Addr())
	if d2.IsCoordinator() {
		t.Fatal("second directory should relay")
	}
	if d2.CoordinatorAddr() != d1.Addr() {
		t.Fatal("relay does not know the coordinator")
	}
}

func TestMasterDirectoryList(t *testing.T) {
	nw := transport.NewInproc()
	m := startMaster(t, nw)
	d1 := startDir(t, nw, m.Addr())
	d2 := startDir(t, nw, m.Addr())
	node, err := transport.NewNode(nw, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	reply, err := node.Request(m.Addr(), wire.TGetDirectory, nil, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := wire.DecodeStringList(reply.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != 2 || dirs[0] != d1.Addr() || dirs[1] != d2.Addr() {
		t.Fatalf("directory list %v", dirs)
	}
}

func TestMasterPing(t *testing.T) {
	nw := transport.NewInproc()
	m := startMaster(t, nw)
	node, _ := transport.NewNode(nw, "", 0)
	defer node.Close()
	reply, err := node.Request(m.Addr(), wire.TPing, nil, 5*time.Second)
	if err != nil || reply.Type != wire.TPong {
		t.Fatalf("ping: %v %v", reply, err)
	}
}

// fakeAgent joins and answers barrier traffic just enough to exercise the
// coordinator's state machine without real agents.
type fakeAgent struct {
	node *transport.Node
	id   uint64
}

func joinFake(t *testing.T, nw transport.Network, coord string) *fakeAgent {
	t.Helper()
	node, err := transport.NewNode(nw, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Close)
	if err := node.Send(coord, wire.TSubscribe, wire.SubscribeTypes()); err != nil {
		t.Fatal(err)
	}
	reply, err := node.Request(coord, wire.TJoin,
		wire.AppendJoin(nil, &wire.Join{Addr: node.Addr()}), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	jr, err := wire.DecodeJoinReply(reply.Payload)
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeAgent{node: node, id: jr.AgentID}
	// Answer migration rounds and batch rounds forever.
	go func() {
		for pkt := range node.Inbox() {
			switch pkt.Type {
			case wire.TDirUpdate:
				v, err := wire.DecodeView(pkt.Payload)
				if err == nil {
					_ = node.Send(coord, wire.TReady, wire.AppendReady(nil, &wire.Ready{
						AgentID: f.id, Step: uint32(v.Epoch), Phase: wire.PhaseMigrate,
					}))
				}
			case wire.TBatchOpen:
				r := wire.NewReader(pkt.Payload)
				batchID := r.U64()
				_ = node.Send(coord, wire.TReady, wire.AppendReady(nil, &wire.Ready{
					AgentID: f.id, Step: uint32(batchID), Phase: wire.PhaseBatch, Masters: 10,
				}))
			case wire.TSketchDelta, wire.TEdges:
				node.Ack(pkt)
			}
		}
	}()
	return f
}

func TestJoinAssignsMonotonicIDs(t *testing.T) {
	nw := transport.NewInproc()
	m := startMaster(t, nw)
	d := startDir(t, nw, m.Addr())
	a1 := joinFake(t, nw, d.Addr())
	a2 := joinFake(t, nw, d.Addr())
	if a1.id == 0 || a2.id <= a1.id {
		t.Fatalf("ids %d, %d not monotonic", a1.id, a2.id)
	}
}

func TestSealAggregatesMasters(t *testing.T) {
	nw := transport.NewInproc()
	m := startMaster(t, nw)
	d := startDir(t, nw, m.Addr())
	joinFake(t, nw, d.Addr())
	joinFake(t, nw, d.Addr())
	client, err := transport.NewNode(nw, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Request(d.Addr(), wire.TIngest, nil, 10*time.Second); err != nil {
		t.Fatalf("seal failed: %v", err)
	}
}

// sendDelta pushes a one-key sketch delta to the coordinator and waits
// for it to be acknowledged (merged).
func sendDelta(t *testing.T, sender *transport.Node, coord string, key uint64, n uint32) {
	t.Helper()
	cfgv := testCfg()
	delta := cfgv.NewSketch()
	delta.AddN(key, n)
	data, _ := delta.MarshalBinary()
	if err := sender.SendAcked(coord, wire.TSketchDelta, data); err != nil {
		t.Fatal(err)
	}
	if err := sender.Flush(5 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// subscribeViews attaches a watcher to the coordinator's view broadcasts.
func subscribeViews(t *testing.T, nw transport.Network, coord string) *transport.Node {
	t.Helper()
	watcher, err := transport.NewNode(nw, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(watcher.Close)
	if err := watcher.Send(coord, wire.TSubscribe, wire.SubscribeTypes(wire.TDirUpdate)); err != nil {
		t.Fatal(err)
	}
	return watcher
}

// nextView returns the first view broadcast with an epoch above after,
// skipping the subscription catch-up (and its retransmissions).
func nextView(t *testing.T, watcher *transport.Node, after uint64) *wire.View {
	t.Helper()
	deadline := time.After(3 * time.Second)
	for {
		select {
		case pkt := <-watcher.Inbox():
			if pkt.Type != wire.TDirUpdate {
				continue
			}
			v, err := wire.DecodeView(pkt.Payload)
			if err != nil {
				t.Fatal(err)
			}
			if v.Epoch > after {
				return v
			}
		case <-deadline:
			t.Fatalf("no view above epoch %d broadcast", after)
		}
	}
}

func estimateIn(t *testing.T, v *wire.View, key uint64) uint64 {
	t.Helper()
	var sk sketch.Sketch
	if err := sk.UnmarshalBinary(v.Sketch); err != nil {
		t.Fatal(err)
	}
	return sk.Estimate(key)
}

// TestSketchDeltaMergesIntoView pushes a delta that moves vertex 42 past
// the replication threshold (256), then seals: the seal's view broadcast
// must carry the merged sketch.
func TestSketchDeltaMergesIntoView(t *testing.T) {
	nw := transport.NewInproc()
	m := startMaster(t, nw)
	d := startDir(t, nw, m.Addr())
	joinFake(t, nw, d.Addr())

	sender, err := transport.NewNode(nw, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()
	sendDelta(t, sender, d.Addr(), 42, 300)
	epoch := d.StatsMap()["epoch"]
	watcher := subscribeViews(t, nw, d.Addr())
	if _, err := sender.Request(d.Addr(), wire.TIngest, nil, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := estimateIn(t, nextView(t, watcher, epoch), 42); got < 300 {
		t.Fatalf("seal broadcast Estimate(42) = %d, want >= 300", got)
	}
}

// TestBucketNeutralSealSkipsMigration pins the seal's skip rule: a delta
// that moves no replica count (99 < 256) must seal with no view broadcast
// and no epoch bump, yet stay merged — the next crossing delta (200, which
// alone would not cross) broadcasts a view carrying both.
func TestBucketNeutralSealSkipsMigration(t *testing.T) {
	nw := transport.NewInproc()
	m := startMaster(t, nw)
	d := startDir(t, nw, m.Addr())
	joinFake(t, nw, d.Addr())

	sender, err := transport.NewNode(nw, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()
	epoch := d.StatsMap()["epoch"]
	watcher := subscribeViews(t, nw, d.Addr())

	sendDelta(t, sender, d.Addr(), 42, 99)
	if _, err := sender.Request(d.Addr(), wire.TIngest, nil, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := d.StatsMap()["epoch"]; got != epoch {
		t.Fatalf("bucket-neutral seal moved the epoch %d -> %d", epoch, got)
	}

	sendDelta(t, sender, d.Addr(), 42, 200)
	if _, err := sender.Request(d.Addr(), wire.TIngest, nil, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	// Had the neutral seal broadcast, its view (epoch+1, estimate 99)
	// would be the first one above the catch-up.
	v := nextView(t, watcher, epoch)
	if v.Epoch != epoch+1 {
		t.Fatalf("first broadcast after the seals has epoch %d, want %d", v.Epoch, epoch+1)
	}
	if got := estimateIn(t, v, 42); got < 299 {
		t.Fatalf("crossing seal broadcast Estimate(42) = %d, want >= 299 (both deltas)", got)
	}
}

func TestMetricHandlerInvoked(t *testing.T) {
	nw := transport.NewInproc()
	m := startMaster(t, nw)
	got := make(chan *wire.Metric, 1)
	d, err := Start(Options{
		Config: testCfg(), Network: nw, MasterAddr: m.Addr(),
		MetricHandler: func(mt *wire.Metric) {
			select {
			case got <- mt:
			default:
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	node, _ := transport.NewNode(nw, "", 0)
	defer node.Close()
	_ = node.Send(d.Addr(), wire.TReport, wire.AppendReport(nil, &wire.Report{
		AgentID: 1, Samples: []wire.Sample{{ID: wire.MetricQueryRate, Value: 7}},
	}))
	select {
	case mt := <-got:
		if mt.AgentID != 1 || mt.Name != autoscale.MetricQueryRate || mt.Value != 7 {
			t.Fatalf("metric %+v", mt)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("metric never delivered")
	}
}

// TestMetricHandlerConcurrentBursts hammers the coordinator with TReport
// frames from many concurrent senders. The handler runs on the directory
// event loop, so it may use unsynchronized state (the plain map below);
// under -race this test proves the serialization, and the final tally
// proves no sample was dropped on the way in.
func TestMetricHandlerConcurrentBursts(t *testing.T) {
	const senders, perSender = 8, 200
	nw := transport.NewInproc()
	m := startMaster(t, nw)
	counts := make(map[uint64]int) // touched only on the event loop
	var sum float64
	done := make(chan struct{})
	d, err := Start(Options{
		Config: testCfg(), Network: nw, MasterAddr: m.Addr(),
		MetricHandler: func(mt *wire.Metric) {
			counts[mt.AgentID]++
			sum += mt.Value
			total := 0
			for _, n := range counts {
				total += n
			}
			if total == senders*perSender {
				close(done)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = d.Close() }()

	// Sender nodes outlive the burst: metric pushes are fire-and-forget,
	// and closing a node drops frames still queued behind its writers.
	for s := 0; s < senders; s++ {
		node, err := transport.NewNode(nw, "", 0)
		if err != nil {
			t.Fatal(err)
		}
		defer node.Close()
		go func(id uint64) {
			for i := 0; i < perSender; i++ {
				_ = node.Send(d.Addr(), wire.TReport, wire.AppendReport(nil, &wire.Report{
					AgentID: id, Samples: []wire.Sample{{ID: wire.MetricQueryRate, Value: 1}},
				}))
			}
		}(uint64(s + 1))
	}

	select {
	case <-done:
	case <-time.After(10 * time.Second):
		// Don't inspect counts here: the handler may still be running.
		t.Fatalf("burst incomplete: fewer than %d samples delivered", senders*perSender)
	}
	// close(done) happens-before this read, so inspecting the handler
	// state here is race-free.
	for s := 1; s <= senders; s++ {
		if counts[uint64(s)] != perSender {
			t.Errorf("sender %d: %d samples, want %d", s, counts[uint64(s)], perSender)
		}
	}
	if sum != float64(senders*perSender) {
		t.Errorf("sum = %v, want %d", sum, senders*perSender)
	}
}

// TestLeaseReportFromUnknownAgentGetsView: a lease from an agent the
// coordinator does not know (an evicted zombie) draws the latest view so
// the zombie can observe its own absence. Lease-less reports — a leaving
// agent's or a client's — never do.
func TestLeaseReportFromUnknownAgentGetsView(t *testing.T) {
	nw := transport.NewInproc()
	m := startMaster(t, nw)
	d := startDir(t, nw, m.Addr())
	newNode := func() *transport.Node {
		n, err := transport.NewNode(nw, "", 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Close)
		return n
	}
	// viewBeforePong sends rep, then a ping; the coordinator answers both
	// in order on one per-peer writer, so a view push it made for rep is
	// in the inbox by the time the pong returns.
	viewBeforePong := func(n *transport.Node, rep *wire.Report) bool {
		if err := n.Send(d.Addr(), wire.TReport, wire.AppendReport(nil, rep)); err != nil {
			t.Fatal(err)
		}
		pong, err := n.Request(d.Addr(), wire.TPing, nil, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		wire.ReleasePacket(pong)
		for {
			select {
			case pkt := <-n.Inbox():
				if pkt.Type == wire.TDirUpdate {
					return true
				}
			default:
				return false
			}
		}
	}
	if !viewBeforePong(newNode(), &wire.Report{AgentID: 42, Lease: true}) {
		t.Fatal("lease report from an unknown agent got no view push")
	}
	leaving := &wire.Report{AgentID: 43, Samples: []wire.Sample{{ID: wire.MetricMigrationBytes, Value: 1}}}
	if viewBeforePong(newNode(), leaving) {
		t.Fatal("lease-less agent report drew a view push")
	}
	client := &wire.Report{Events: []events.Record{{Seq: 1, Kind: events.KindOpError, Proc: "client"}}}
	if viewBeforePong(newNode(), client) {
		t.Fatal("client report drew a view push")
	}
}

func TestRelayForwardsSubscriptionsAndViews(t *testing.T) {
	nw := transport.NewInproc()
	m := startMaster(t, nw)
	coord := startDir(t, nw, m.Addr())
	relay := startDir(t, nw, m.Addr())
	// Subscriber attaches to the relay; a membership change at the
	// coordinator must still reach it.
	sub, err := transport.NewNode(nw, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if err := sub.Send(relay.Addr(), wire.TSubscribe, wire.SubscribeTypes(wire.TDirUpdate)); err != nil {
		t.Fatal(err)
	}
	joinFake(t, nw, coord.Addr())
	deadline := time.After(5 * time.Second)
	for {
		select {
		case pkt := <-sub.Inbox():
			if pkt.Type != wire.TDirUpdate {
				continue
			}
			v, err := wire.DecodeView(pkt.Payload)
			if err != nil {
				t.Fatal(err)
			}
			if len(v.Agents) == 1 {
				return
			}
		case <-deadline:
			t.Fatal("relay never delivered the view")
		}
	}
}

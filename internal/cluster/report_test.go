package cluster

import (
	"sync"
	"testing"
	"time"

	"elga/internal/autoscale"
	"elga/internal/checkpoint"
	"elga/internal/client"
	"elga/internal/events"
	"elga/internal/repartition"
	"elga/internal/trace"
	"elga/internal/transport"
	"elga/internal/wire"
)

// TestIdleAgentSendsOneFramePerTick: with trace, events, repartition,
// and durability armed, an idle agent's whole control traffic is its one
// report per heartbeat tick — lease, samples, spans, events, digest, and
// checkpoint mark share a frame instead of sending one each.
func TestIdleAgentSendsOneFramePerTick(t *testing.T) {
	cfg := testConfig()
	cfg.HeartbeatInterval = 25 * time.Millisecond
	rc := repartition.DefaultConfig()
	c, err := New(Options{
		Config: cfg, Agents: 2,
		Trace:       &trace.Config{Enabled: true, Sample: 1},
		Events:      &events.Config{Enabled: true},
		Repartition: &rc,
		Durability:  &checkpoint.Config{Enabled: true, Dir: t.TempDir()},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	if err := c.Load(ringGraph(64)); err != nil {
		t.Fatal(err)
	}
	// Let the seal's checkpoints, spans, and events drain into reports.
	time.Sleep(20 * cfg.HeartbeatInterval)
	const ticks = 40
	before := make([]uint64, len(c.Agents()))
	for i, a := range c.Agents() {
		before[i] = a.TransportStats().FramesOut
	}
	time.Sleep(ticks * cfg.HeartbeatInterval)
	for i, a := range c.Agents() {
		// One tick of slop at each end of the window.
		if sent := a.TransportStats().FramesOut - before[i]; sent > ticks+2 {
			t.Errorf("agent %d sent %d frames in %d idle ticks, want at most one per tick", a.ID(), sent, ticks)
		}
	}
}

// TestVoteSamplesObservedOnceUnderDuplication: step_time rides the
// acked barrier vote, which the transport deduplicates, so a duplicated
// frame never double-counts a sample.
func TestVoteSamplesObservedOnceUnderDuplication(t *testing.T) {
	var mu sync.Mutex
	stepTimes := map[uint64]int{}
	fn := transport.NewFaultNetwork(transport.NewInproc(), transport.FaultConfig{Seed: 51, Duplicate: 0.3})
	c, err := New(Options{Config: testConfig(), Agents: 2, Network: fn, MetricHandler: func(m *wire.Metric) {
		if m.Name == autoscale.MetricStepTime {
			mu.Lock()
			stepTimes[m.AgentID]++
			mu.Unlock()
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	if err := c.Load(ringGraph(40)); err != nil {
		t.Fatal(err)
	}
	stats, err := c.Run(client.RunSpec{Algo: "pagerank", MaxSteps: 10, FromScratch: true})
	if err != nil {
		t.Fatal(err)
	}
	// Every vote is handled before the run reply, and its samples before
	// the vote, so the tally is final here.
	mu.Lock()
	defer mu.Unlock()
	for _, a := range c.Agents() {
		if got := stepTimes[a.ID()]; got != int(stats.Steps) {
			t.Errorf("agent %d: %d step_time samples for %d compute votes", a.ID(), got, stats.Steps)
		}
	}
}

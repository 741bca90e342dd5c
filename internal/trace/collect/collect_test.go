package collect

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"elga/internal/trace"
)

func span(hi, lo, id, parent uint64, run, step uint32, name string, start int64) trace.SpanRecord {
	return trace.SpanRecord{
		TraceHi: hi, TraceLo: lo, SpanID: id, Parent: parent,
		RunID: run, Step: step, Flags: trace.FlagSampled,
		Name: name, Start: start, Dur: time.Millisecond,
	}
}

func TestCollectorAssemblesOutOfOrderBatches(t *testing.T) {
	c := New()
	// Agent spans land before the coordinator's roots: batches ship on
	// independent cadences, so arrival order carries no meaning.
	c.Add("agent-2", []trace.SpanRecord{span(1, 2, 30, 20, 1, 0, "compute", 300)})
	c.Add("agent-1", []trace.SpanRecord{span(1, 2, 31, 20, 1, 0, "compute", 250)})
	c.Add("coordinator", []trace.SpanRecord{
		span(1, 2, 20, 10, 1, 0, "step", 200),
		span(1, 2, 10, 0, 1, 0, "run", 100),
	})
	tls := c.Timelines()
	if len(tls) != 1 {
		t.Fatalf("%d timelines, want 1", len(tls))
	}
	tl := tls[0]
	if tl.RunID != 1 || len(tl.Spans) != 3 {
		t.Fatalf("timeline %+v", tl)
	}
	// Per-proc spans come back sorted by start regardless of arrival.
	coord := tl.Spans["coordinator"]
	if len(coord) != 2 || coord[0].Name != "run" || coord[1].Name != "step" {
		t.Fatalf("coordinator lane %+v", coord)
	}
}

func TestCollectorLateBatchAfterCompletionStaysBounded(t *testing.T) {
	c := NewWithLimits(4, 8)
	c.Add("coordinator", []trace.SpanRecord{span(7, 7, 1, 0, 3, 0, "run", 100)})
	c.MarkComplete(7, 7)

	// A straggler agent flushes after the run completed (its report tick
	// fired late). The spans must still be accepted into the same bounded
	// trace — no per-run assembler state may have leaked away or grown.
	c.Add("agent-1", []trace.SpanRecord{span(7, 7, 2, 1, 3, 0, "compute", 150)})
	if got := c.TraceCount(); got != 1 {
		t.Fatalf("late batch changed trace count to %d", got)
	}
	if got := c.SpanCount(); got != 2 {
		t.Fatalf("span count %d, want 2", got)
	}
	tl := c.Timelines()[0]
	if !tl.Complete {
		t.Fatal("completion flag lost")
	}

	// Past the per-trace span cap, late spans are counted drops — the
	// assembler never grows without bound after completion.
	for i := 0; i < 20; i++ {
		c.Add("agent-1", []trace.SpanRecord{span(7, 7, uint64(100 + i), 1, 3, 0, "late", 200)})
	}
	if got := c.SpanCount(); got != 8 {
		t.Fatalf("span cap breached: %d spans held", got)
	}
	if _, dropped := c.Dropped(); dropped != 14 {
		t.Fatalf("dropped %d spans, want 14", dropped)
	}
}

func TestCollectorEvictsOldestTraces(t *testing.T) {
	c := NewWithLimits(2, 16)
	for i := uint64(1); i <= 3; i++ {
		c.Add("p", []trace.SpanRecord{span(i, i, i*10, 0, uint32(i), 0, "run", int64(i))})
	}
	if got := c.TraceCount(); got != 2 {
		t.Fatalf("%d traces held, want 2", got)
	}
	if evicted, _ := c.Dropped(); evicted != 1 {
		t.Fatalf("evicted %d traces, want 1", evicted)
	}
	// The survivor set is the two newest.
	for _, tl := range c.Timelines() {
		if tl.TraceHi == 1 {
			t.Fatal("oldest trace survived eviction")
		}
	}
}

func TestCollectorDropsZeroTraceID(t *testing.T) {
	c := New()
	c.Add("p", []trace.SpanRecord{{Name: "orphan", Start: 1, Dur: time.Millisecond}})
	if c.TraceCount() != 0 {
		t.Fatal("zero-ID span created a trace")
	}
	if _, dropped := c.Dropped(); dropped != 1 {
		t.Fatalf("dropped %d, want 1", dropped)
	}
}

func TestWriteChromeTraceParsesAndLinks(t *testing.T) {
	c := New()
	c.Add("coordinator", []trace.SpanRecord{
		span(5, 6, 10, 0, 1, 0, "run", 1_000_000),
		span(5, 6, 20, 10, 1, 0, "step", 1_100_000),
	})
	c.Add("agent-1", []trace.SpanRecord{span(5, 6, 30, 20, 1, 0, "compute", 1_200_000)})
	var buf bytes.Buffer
	if err := c.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("export is not valid trace-event JSON: %v", err)
	}
	wantTrace := fmt.Sprintf("%016x%016x", 5, 6)
	var metas, complete int
	for _, e := range out.TraceEvents {
		switch e.Ph {
		case "M":
			metas++
		case "X":
			complete++
			if e.Args["trace"] != wantTrace {
				t.Fatalf("span %s carries trace %v, want %s", e.Name, e.Args["trace"], wantTrace)
			}
		default:
			t.Fatalf("unexpected phase %q", e.Ph)
		}
	}
	if metas != 2 || complete != 3 {
		t.Fatalf("got %d metadata + %d complete events, want 2 + 3", metas, complete)
	}
}

func TestSummaryAttributesSlowestPerStep(t *testing.T) {
	c := New()
	fast := span(9, 9, 2, 1, 4, 1, "barrier-wait", 100)
	slow := span(9, 9, 3, 1, 4, 1, "barrier-wait", 100)
	slow.Dur = 50 * time.Millisecond
	c.Add("agent-1", []trace.SpanRecord{fast})
	c.Add("agent-2", []trace.SpanRecord{slow})
	s := c.Summary()
	if !strings.Contains(s, "barrier-wait") || !strings.Contains(s, "@agent-2") {
		t.Fatalf("summary does not attribute the slow barrier wait:\n%s", s)
	}
	if !strings.Contains(s, "collector: 0 traces evicted, 0 spans dropped") {
		t.Fatalf("summary missing counters:\n%s", s)
	}
}

// TestCollectorConcurrent exercises concurrent Add/MarkComplete/export —
// the directory event loop and a scraping test can overlap.
func TestCollectorConcurrent(t *testing.T) {
	c := NewWithLimits(8, 128)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			hi := uint64(i%8 + 1)
			c.Add("p", []trace.SpanRecord{span(hi, hi, uint64(i+1000), 0, uint32(i), 0, "s", int64(i))})
			c.MarkComplete(hi, hi)
		}
	}()
	for i := 0; i < 50; i++ {
		_ = c.Timelines()
		_ = c.Summary()
		var buf bytes.Buffer
		_ = c.WriteChromeTrace(&buf)
	}
	<-done
}

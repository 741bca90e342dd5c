package wire

import (
	"encoding/binary"
	"reflect"
	"testing"

	"elga/internal/events"
)

func TestReportRoundTrip(t *testing.T) {
	rec := events.Record{Seq: 1, Kind: events.KindJoin, Proc: "agent-3", NFields: 1}
	rec.Fields[0] = events.U("agent", 3)
	for i, in := range reportSeeds(rec) {
		out, err := DecodeReport(AppendReport(nil, in))
		if err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		if !reflect.DeepEqual(out, in) {
			t.Fatalf("seed %d:\n got %+v\nwant %+v", i, out, in)
		}
	}
	// A lease-only tick is the presence byte plus the agent ID.
	if n := len(AppendReport(nil, &Report{AgentID: 3, Lease: true})); n != 9 {
		t.Fatalf("lease-only report is %d bytes, want 9", n)
	}
	if !(&Report{}).Empty() || (&Report{Lease: true}).Empty() {
		t.Fatal("Empty misjudges the lease")
	}
}

func TestReportRejectsTruncation(t *testing.T) {
	full := AppendReport(nil, reportSeeds(events.Record{Kind: "k", Proc: "p"})[0])
	for n := 0; n < len(full); n++ {
		if _, err := DecodeReport(full[:n]); err == nil {
			t.Fatalf("truncated report at %d of %d accepted", n, len(full))
		}
	}
}

// TestReportSkipsUnknownSection: a section under a presence bit this
// decoder does not know is skipped by its length prefix.
func TestReportSkipsUnknownSection(t *testing.T) {
	data := AppendReport(nil, &Report{AgentID: 5, Lease: true,
		Samples: []Sample{{ID: MetricInboxDepth, Value: 3}}})
	data[0] |= 0x80
	data = binary.LittleEndian.AppendUint32(data, 3)
	data = append(data, 1, 2, 3)
	rep, err := DecodeReport(data)
	if err != nil {
		t.Fatal(err)
	}
	if rep.AgentID != 5 || !rep.Lease || len(rep.Samples) != 1 || rep.Samples[0].Value != 3 {
		t.Fatalf("%+v", rep)
	}
}

func TestReportRejectsUndefinedMetric(t *testing.T) {
	data := AppendReport(nil, &Report{Samples: []Sample{{ID: MetricID(NumMetricIDs + 1), Value: 1}}})
	if _, err := DecodeReport(data); err == nil {
		t.Fatal("undefined metric ID accepted")
	}
}

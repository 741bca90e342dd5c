package wire

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"elga/internal/events"
	"elga/internal/trace"
)

// FuzzDecodeFrame drives every control-plane decoder that parses
// network-supplied payloads: byte 0 selects the decoder (the frame type
// a real packet would carry), the rest is the payload. The invariant
// under test is the transport's survival property — decoders return
// errors for malformed input, they never panic or over-allocate, because
// one crafted frame must not take down a coordinator.
func FuzzDecodeFrame(f *testing.F) {
	// Seed with well-formed payloads of each framed shape so the fuzzer
	// starts from structurally valid inputs and mutates inward.
	rec := events.Record{
		Seq: 7, Time: 1700000000, Level: events.Warn, Kind: events.KindHealth,
		Proc: "agent-3", TraceHi: 1, TraceLo: 2, RunID: 4, Step: 9, NFields: 2,
	}
	rec.Fields[0] = events.U("agent", 3)
	rec.Fields[1] = events.S("cause", "compute-skew")
	f.Add(seedFrame(TReport, AppendEventBatch(nil, []events.Record{rec}, 5)))
	f.Add(seedFrame(TStatusReply, AppendStatusReply(nil, &StatusReply{
		Epoch: 3, BatchID: 2, Vertices: 100, Running: true, RunID: 1, Step: 6,
		Agents: []AgentHealth{{
			AgentID: 3, Addr: "inproc-7", Status: HealthStraggler,
			Score: 2.5, Cause: "compute-skew", StepSeconds: 0.2,
		}},
		Timeline: []events.Record{rec},
	})))
	f.Add(seedFrame(TReport, AppendManifest(nil, &Manifest{
		Meta: CheckpointMeta{Key: "agent-0", AgentID: 1, Seq: 3, ViewEpoch: 2, RunID: 1, Step: 4},
		Segments: []SegmentRef{
			{Kind: 1, Name: "01-abc", Length: 64, CRC: 0xdeadbeef},
			{Kind: 7, Name: "07-def", Length: 1 << 20, CRC: 1},
		},
	})))
	f.Add(seedFrame(TProfileReq, AppendProfileReq(nil, &ProfileReq{
		CaptureID: 12, Kind: 1, Steps: 4, Seconds: 1.5, TraceHi: 8, TraceLo: 9,
	})))
	f.Add(seedFrame(TProfileChunk, AppendProfileChunk(nil, &ProfileChunk{
		CaptureID: 12, AgentID: 3, Kind: 2, Seq: 1, Total: 3,
		RunID: 1, StepStart: 5, StepEnd: 8, Data: []byte("pprofpayload"),
	})))
	f.Add(seedFrame(TProfileChunk, AppendProfileChunk(nil, &ProfileChunk{
		CaptureID: 13, AgentID: 3, Kind: 1, Seq: 0, Total: 1, Err: "cpu profiler busy",
	})))
	f.Add(seedFrame(TProfile, AppendProfileRequest(nil, &ProfileRequest{
		Op: ProfileOpCapture, AgentID: 3, Kinds: []uint8{1, 4}, Steps: 2, Seconds: 0.5,
	})))
	f.Add(seedFrame(TProfileReply, AppendProfileReply(nil, &ProfileReply{
		Captures: []uint64{12, 13}, Pending: 2,
		Artifacts: []ProfileArtifact{{
			ID: 12, AgentID: 3, Kind: 1, Segment: "07-abc", Length: 512,
			RunID: 1, StepStart: 5, StepEnd: 8, Verdict: "straggler",
			Cause: "compute-skew", WallNanos: 1700000000,
		}},
		Data: []byte{0x1f, 0x8b, 0x08, 0x00},
	})))
	for _, rep := range reportSeeds(rec) {
		f.Add(seedFrame(TReport, AppendReport(nil, rep)))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		typ, payload := Type(data[0]), data[1:]
		// Each decoder must return (result, error) without panicking on
		// arbitrary bytes. Results are discarded — only survival matters.
		switch typ {
		case TReport:
			// The report and every payload shape that rides in or
			// beside it: its sections and the checkpoint formats.
			_, _ = DecodeReport(payload)
			_, _, _ = DecodeEventBatch(payload)
			_, _ = DecodeSpanBatch(payload)
			_, _ = DecodeVertexDigest(payload)
			_, _ = DecodeCheckpointMark(payload)
			_, _ = DecodeManifest(payload)
			_, _ = DecodeCoordState(payload)
		case TStatusReply:
			_, _ = DecodeStatusReply(payload)
		case TStatus:
			_, _ = DecodeStatusReq(payload)
		case TProfileReq:
			_, _ = DecodeProfileReq(payload)
		case TProfileChunk:
			_, _ = DecodeProfileChunk(payload)
		case TProfile:
			_, _ = DecodeProfileRequest(payload)
		case TProfileReply:
			_, _ = DecodeProfileReply(payload)
			_, _ = DecodeProfileArtifacts(payload)
		case TDirUpdate:
			_, _ = DecodeView(payload)
		default:
			// Unmapped selector bytes still exercise the broadest parsers.
			_, _, _ = DecodeEventBatch(payload)
			_, _ = DecodeStatusReply(payload)
			_, _ = DecodeProfileReply(payload)
		}
	})
}

// reportSeeds returns the three report shapes: every section present,
// an agent's lease-only tick, and a client's lease-less event report.
func reportSeeds(rec events.Record) []*Report {
	return []*Report{
		{
			AgentID: 3, Lease: true,
			Samples: []Sample{{ID: MetricStepTime, Value: 0.25}, {ID: MetricGoroutines, Value: 12}},
			Spans: &SpanBatch{Proc: "agent-3", Spans: []trace.SpanRecord{{
				TraceHi: 1, TraceLo: 2, SpanID: 3, RunID: 1, Step: 4, Name: "compute", Dur: 5,
			}}},
			Events: []events.Record{rec}, Dropped: 2,
			Digest: &VertexDigest{AgentID: 3, Epoch: 2, Vertices: 10, Entries: []DigestEntry{{Vertex: 7, Local: 1, Peer: 2, PeerMsgs: 9}}},
			Mark:   &CheckpointMark{Meta: CheckpointMeta{Key: "agent-0", AgentID: 3, Seq: 4}, Bytes: 512},
		},
		{AgentID: 3, Lease: true},
		{Events: []events.Record{rec}, Dropped: 1},
	}
}

// seedFrame prefixes a payload with its selector byte.
func seedFrame(typ Type, payload []byte) []byte {
	return append([]byte{byte(typ)}, payload...)
}

// TestFuzzCorpusSelectors pins the checked-in corpus to the Type
// numbering: each file's selector byte must still reach the decoder its
// name promises, and that decoder must accept the payload.
func TestFuzzCorpusSelectors(t *testing.T) {
	decoders := map[string]struct {
		typ Type
		dec func([]byte) error
	}{
		"event-batch":       {TReport, func(b []byte) error { _, _, err := DecodeEventBatch(b); return err }},
		"manifest":          {TReport, func(b []byte) error { _, err := DecodeManifest(b); return err }},
		"report-full":       {TReport, func(b []byte) error { _, err := DecodeReport(b); return err }},
		"report-lease":      {TReport, func(b []byte) error { _, err := DecodeReport(b); return err }},
		"report-client":     {TReport, func(b []byte) error { _, err := DecodeReport(b); return err }},
		"status-reply":      {TStatusReply, func(b []byte) error { _, err := DecodeStatusReply(b); return err }},
		"profile-req":       {TProfileReq, func(b []byte) error { _, err := DecodeProfileReq(b); return err }},
		"profile-chunk":     {TProfileChunk, func(b []byte) error { _, err := DecodeProfileChunk(b); return err }},
		"profile-chunk-err": {TProfileChunk, func(b []byte) error { _, err := DecodeProfileChunk(b); return err }},
		"profile-request":   {TProfile, func(b []byte) error { _, err := DecodeProfileRequest(b); return err }},
		"profile-reply":     {TProfileReply, func(b []byte) error { _, err := DecodeProfileReply(b); return err }},
	}
	files, err := filepath.Glob("testdata/fuzz/FuzzDecodeFrame/*")
	if err != nil || len(files) != len(decoders) {
		t.Fatalf("corpus has %d files, want %d (%v)", len(files), len(decoders), err)
	}
	for _, f := range files {
		name := filepath.Base(f)
		want, ok := decoders[name]
		if !ok {
			t.Errorf("%s: no decoder mapped", name)
			continue
		}
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lit := strings.TrimSpace(strings.TrimPrefix(string(raw), "go test fuzz v1\n"))
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
		if err != nil || len(s) == 0 {
			t.Fatalf("%s: unparsable corpus entry: %v", name, err)
		}
		if Type(s[0]) != want.typ {
			t.Errorf("%s: selector %v, want %v", name, Type(s[0]), want.typ)
		}
		if err := want.dec([]byte(s[1:])); err != nil {
			t.Errorf("%s: named decoder rejects the payload: %v", name, err)
		}
	}
}

package wire

import (
	"bytes"
	"encoding/hex"
	"testing"

	"elga/internal/events"
)

func testMeta() CheckpointMeta {
	return CheckpointMeta{
		Key:         "agent-3",
		AgentID:     7,
		Seq:         12,
		ViewEpoch:   42,
		BatchID:     5,
		OverrideVer: 42,
		RunID:       9,
		Step:        31,
		SealedGen:   4,
		WallNanos:   1_700_000_000_000_000_000,
	}
}

func TestManifestRoundTrip(t *testing.T) {
	m := &Manifest{
		Meta: testMeta(),
		Segments: []SegmentRef{
			{Kind: SegSealed, Name: "01-abcdef", Length: 1024, CRC: 0xdeadbeef},
			{Kind: SegTail, Name: "02-001122", Length: 0, CRC: 0},
			{Kind: SegStates, Name: "03-ffee", Length: 77, CRC: 1},
		},
	}
	got, err := DecodeManifest(AppendManifest(nil, m))
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta != m.Meta {
		t.Fatalf("meta mismatch:\n got %+v\nwant %+v", got.Meta, m.Meta)
	}
	if len(got.Segments) != len(m.Segments) {
		t.Fatalf("segments: got %d, want %d", len(got.Segments), len(m.Segments))
	}
	for i, s := range got.Segments {
		if s != m.Segments[i] {
			t.Fatalf("segment %d: got %+v, want %+v", i, s, m.Segments[i])
		}
	}
}

func TestManifestRejectsTruncation(t *testing.T) {
	full := AppendManifest(nil, &Manifest{
		Meta:     testMeta(),
		Segments: []SegmentRef{{Kind: SegSealed, Name: "01-ab", Length: 3, CRC: 4}},
	})
	for n := 0; n < len(full); n++ {
		if _, err := DecodeManifest(full[:n]); err == nil {
			t.Fatalf("truncated manifest at %d accepted", n)
		}
	}
}

func TestCheckpointMarkRoundTrip(t *testing.T) {
	m := &CheckpointMark{Meta: testMeta(), Bytes: 9999}
	got, err := DecodeCheckpointMark(AppendCheckpointMark(nil, m))
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta != m.Meta || got.Bytes != m.Bytes {
		t.Fatalf("mark mismatch: got %+v, want %+v", got, m)
	}
	full := AppendCheckpointMark(nil, m)
	for n := 0; n < len(full); n++ {
		if _, err := DecodeCheckpointMark(full[:n]); err == nil {
			t.Fatalf("truncated mark at %d accepted", n)
		}
	}
}

func TestMailboxWatermarksRoundTrip(t *testing.T) {
	ws := []MailboxWatermark{
		{RunID: 1, Step: 2, Count: 3},
		{RunID: 1, Step: 3, Count: 40},
	}
	got, err := DecodeMailboxWatermarks(AppendMailboxWatermarks(nil, ws))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ws) {
		t.Fatalf("watermarks: got %d, want %d", len(got), len(ws))
	}
	for i, w := range got {
		if w != ws[i] {
			t.Fatalf("watermark %d: got %+v, want %+v", i, w, ws[i])
		}
	}
	empty, err := DecodeMailboxWatermarks(AppendMailboxWatermarks(nil, nil))
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty watermarks: %v %v", empty, err)
	}
}

func TestCoordStateRoundTrip(t *testing.T) {
	cs := &CoordState{
		View:        AppendView(nil, &View{Epoch: 8, BatchID: 2, N: 60, Agents: []AgentInfo{{1, "a"}, {2, "b"}}}),
		NextAgentID: 17,
		NextRunID:   5,
		Marks: []CheckpointMark{
			{Meta: testMeta(), Bytes: 123},
		},
		EventSeq: 42,
		Events: []events.Record{
			{Seq: 41, Time: 99, Level: events.Warn, Kind: events.KindEvict, Proc: "coord"},
			{Seq: 42, Time: 100, Kind: events.KindMigrationStart, Proc: "coord"},
		},
	}
	got, err := DecodeCoordState(AppendCoordState(nil, cs))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.View, cs.View) || got.NextAgentID != 17 || got.NextRunID != 5 {
		t.Fatalf("coord state mismatch: %+v", got)
	}
	if len(got.Marks) != 1 || got.Marks[0] != cs.Marks[0] {
		t.Fatalf("marks mismatch: %+v", got.Marks)
	}
	if got.EventSeq != 42 || len(got.Events) != 2 ||
		got.Events[0] != cs.Events[0] || got.Events[1] != cs.Events[1] {
		t.Fatalf("timeline mismatch: seq=%d events=%+v", got.EventSeq, got.Events)
	}
	v, err := DecodeView(got.View)
	if err != nil || v.Epoch != 8 || len(v.Agents) != 2 {
		t.Fatalf("embedded view mangled: %+v err=%v", v, err)
	}
	// Truncation is rejected everywhere except the one boundary that IS a
	// complete pre-events encoding (see TestCoordStateBackCompat).
	full := AppendCoordState(nil, cs)
	legacy := len(AppendCoordState(nil, &CoordState{
		View: cs.View, NextAgentID: cs.NextAgentID, NextRunID: cs.NextRunID, Marks: cs.Marks,
	})) - 12 // minus the empty EventSeq (u64) + count (u32) tail
	for n := 0; n < len(full); n++ {
		if n == legacy {
			continue
		}
		if _, err := DecodeCoordState(full[:n]); err == nil {
			t.Fatalf("truncated coord state at %d accepted", n)
		}
	}
}

// TestCoordStateBackCompat feeds the decoder a snapshot written before
// the event timeline existed (the encoding simply ended after the cut
// table). It must parse with a zero timeline, not error — durable
// coordinator state from older deployments stays restorable.
func TestCoordStateBackCompat(t *testing.T) {
	cs := &CoordState{
		View:        AppendView(nil, &View{Epoch: 3, N: 60, Agents: []AgentInfo{{1, "a"}}}),
		NextAgentID: 9,
		NextRunID:   2,
		Marks:       []CheckpointMark{{Meta: testMeta(), Bytes: 7}},
	}
	full := AppendCoordState(nil, cs)
	legacy := full[:len(full)-12] // strip the empty timeline tail: pre-events layout
	got, err := DecodeCoordState(legacy)
	if err != nil {
		t.Fatalf("pre-events snapshot rejected: %v", err)
	}
	if got.NextAgentID != 9 || got.NextRunID != 2 || len(got.Marks) != 1 {
		t.Fatalf("legacy fields mangled: %+v", got)
	}
	if got.EventSeq != 0 || got.Events != nil {
		t.Fatalf("legacy snapshot grew a timeline: seq=%d events=%+v", got.EventSeq, got.Events)
	}
}

// TestCoordStateParentSnapshotDecodes decodes a coordinator snapshot
// written before the report frame replaced the per-plane frames (view,
// counters, one mark, one event) and re-encodes it byte-identically:
// CoordState is the only format that persists, so its bytes must not move.
func TestCoordStateParentSnapshotDecodes(t *testing.T) {
	const golden = "38000000040000000000000003000000000000003c0000000000000002000000010000000000000002006131" +
		"030000000000000002006133000000000300000000000000020000000100000007006167656e742d30010000" +
		"0000000000070000000000000004000000000000000300000000000000000000000000000002000000090000" +
		"0000000000000000000000000000000000001000000000000005000000000000000100000005000000000000" +
		"0000f153650000000001050065766963740b00636f6f7264696e61746f720000000000000000000000000000" +
		"000000000000000000000105006167656e74000200000000000000"
	data, err := hex.DecodeString(golden)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := DecodeCoordState(data)
	if err != nil {
		t.Fatalf("parent snapshot rejected: %v", err)
	}
	v, err := DecodeView(cs.View)
	if err != nil || v.Epoch != 4 || v.BatchID != 3 || len(v.Agents) != 2 {
		t.Fatalf("view: %v %+v", err, v)
	}
	if cs.NextAgentID != 3 || cs.NextRunID != 2 || len(cs.Marks) != 1 || cs.Marks[0].Bytes != 4096 ||
		cs.Marks[0].Meta.Key != "agent-0" || cs.EventSeq != 5 || len(cs.Events) != 1 ||
		cs.Events[0].Kind != events.KindEvict || cs.Events[0].Fields[0].U64 != 2 {
		t.Fatalf("fields mangled: %+v", cs)
	}
	if !bytes.Equal(AppendCoordState(nil, cs), data) {
		t.Fatal("re-encoded snapshot differs from the parent's bytes")
	}
}

func TestJoinRestoreRoundTrip(t *testing.T) {
	meta := testMeta()
	j := &Join{Addr: "inproc-9", Restore: &meta}
	got, err := DecodeJoin(AppendJoin(nil, j))
	if err != nil {
		t.Fatal(err)
	}
	if got.Addr != j.Addr {
		t.Fatalf("addr: got %q, want %q", got.Addr, j.Addr)
	}
	if got.Restore == nil || *got.Restore != meta {
		t.Fatalf("restore: got %+v, want %+v", got.Restore, meta)
	}
}

func TestJoinWithoutRestoreMatchesLegacyEncoding(t *testing.T) {
	// A restore-free join must encode byte-identically to the pre-restore
	// wire format (just the address), and a legacy payload must decode
	// with a nil Restore — the mixed-version compatibility contract.
	j := &Join{Addr: "inproc-3"}
	enc := AppendJoin(nil, j)
	legacy := (&Writer{}).strOnly(j.Addr)
	if !bytes.Equal(enc, legacy) {
		t.Fatalf("restore-free join diverged from legacy layout:\n got %x\nwant %x", enc, legacy)
	}
	got, err := DecodeJoin(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if got.Addr != j.Addr || got.Restore != nil {
		t.Fatalf("legacy join mangled: %+v", got)
	}
}

// strOnly reproduces the legacy join layout: a lone address string.
func (w *Writer) strOnly(s string) []byte {
	w.Str(s)
	return w.buf
}

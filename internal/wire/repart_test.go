package wire

import (
	"bytes"
	"testing"
)

func TestVertexDigestRoundTrip(t *testing.T) {
	d := &VertexDigest{
		AgentID:  7,
		Epoch:    42,
		Vertices: 512,
		Entries: []DigestEntry{
			{Vertex: 3, Local: 2, Peer: 9, PeerMsgs: 40},
			{Vertex: 1 << 40, Local: 0, Peer: 8, PeerMsgs: 7},
		},
	}
	got, err := DecodeVertexDigest(AppendVertexDigest(nil, d))
	if err != nil {
		t.Fatal(err)
	}
	if got.AgentID != d.AgentID || got.Epoch != d.Epoch || got.Vertices != d.Vertices {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Entries) != len(d.Entries) {
		t.Fatalf("entries: got %d, want %d", len(got.Entries), len(d.Entries))
	}
	for i, e := range got.Entries {
		if e != d.Entries[i] {
			t.Fatalf("entry %d: got %+v, want %+v", i, e, d.Entries[i])
		}
	}
}

func TestVertexDigestHeaderOnly(t *testing.T) {
	// Agents send entry-less digests to mark reporter coverage; the header
	// must survive alone.
	d := &VertexDigest{AgentID: 3, Epoch: 9, Vertices: 128}
	got, err := DecodeVertexDigest(AppendVertexDigest(nil, d))
	if err != nil {
		t.Fatal(err)
	}
	if got.AgentID != 3 || got.Vertices != 128 || len(got.Entries) != 0 {
		t.Fatalf("header-only digest mangled: %+v", got)
	}
}

func TestVertexDigestRejectsTruncation(t *testing.T) {
	full := AppendVertexDigest(nil, &VertexDigest{
		AgentID: 1, Epoch: 2, Vertices: 3,
		Entries: []DigestEntry{{Vertex: 4, Local: 5, Peer: 6, PeerMsgs: 7}},
	})
	for n := 0; n < len(full); n++ {
		if _, err := DecodeVertexDigest(full[:n]); err == nil {
			t.Fatalf("truncated digest at %d accepted", n)
		}
	}
}

func TestViewOverridesRoundTrip(t *testing.T) {
	v := &View{
		Epoch: 5, BatchID: 2, N: 100,
		Agents: []AgentInfo{{1, "a"}, {2, "b"}},
		Overrides: []VertexOverride{
			{Vertex: 10, AgentID: 2},
			{Vertex: 77, AgentID: 1},
		},
	}
	got, err := DecodeView(AppendView(nil, v))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Overrides) != 2 {
		t.Fatalf("overrides: got %d, want 2", len(got.Overrides))
	}
	for i, o := range got.Overrides {
		if o != v.Overrides[i] {
			t.Fatalf("override %d: got %+v, want %+v", i, o, v.Overrides[i])
		}
	}
}

func TestViewWithoutOverridesMatchesLegacyEncoding(t *testing.T) {
	// An override-free view must encode byte-identically to the
	// pre-override wire format, and a legacy payload (which simply ends at
	// the sketch) must decode with a nil override table. This is the
	// mixed-version compatibility contract: relays and old agents never
	// look past the sketch.
	v := &View{Epoch: 3, BatchID: 1, N: 50, Agents: []AgentInfo{{1, "a"}}, Sketch: []byte{1, 2, 3}}
	enc := AppendView(nil, v)
	legacy := legacyEncodeView(v)
	if !bytes.Equal(enc, legacy) {
		t.Fatalf("override-free view encoding diverged from legacy layout:\n got %x\nwant %x", enc, legacy)
	}
	got, err := DecodeView(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if got.Overrides != nil {
		t.Fatalf("legacy view decoded with overrides: %+v", got.Overrides)
	}
	if got.Epoch != 3 || len(got.Agents) != 1 || !bytes.Equal(got.Sketch, v.Sketch) {
		t.Fatalf("legacy view mangled: %+v", got)
	}
}

// legacyEncodeView reproduces the pre-override view layout: everything up
// to and including the sketch, nothing after.
func legacyEncodeView(v *View) []byte {
	w := Writer{}
	w.U64(v.Epoch)
	w.U64(v.BatchID)
	w.U64(v.N)
	w.U32(uint32(len(v.Agents)))
	for _, a := range v.Agents {
		w.U64(a.ID)
		w.Str(a.Addr)
	}
	w.Blob(v.Sketch)
	return w.buf
}

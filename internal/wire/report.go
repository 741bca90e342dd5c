package wire

import (
	"encoding/binary"
	"fmt"

	"elga/internal/autoscale"
	"elga/internal/events"
)

// MetricID keys a metric sample on the wire; String gives the
// autoscale.Metric* name the coordinator's handlers key on.
type MetricID uint8

// Metric IDs, one per autoscale.Metric* name.
const (
	MetricStepTime MetricID = iota + 1
	MetricCombineTime
	MetricInboxDepth
	MetricQueueDepth
	MetricMigrationBytes
	MetricRetransmits
	MetricFrontierSize
	MetricBytesPerEdge
	MetricGoroutines
	MetricChangeRate
	MetricQueryRate
)

var metricNames = [...]string{"", autoscale.MetricStepTime, autoscale.MetricCombineTime,
	autoscale.MetricInboxDepth, autoscale.MetricQueueDepth, autoscale.MetricMigrationBytes,
	autoscale.MetricRetransmits, autoscale.MetricFrontierSize, autoscale.MetricBytesPerEdge,
	autoscale.MetricGoroutines, autoscale.MetricChangeRate, autoscale.MetricQueryRate}

// NumMetricIDs counts the defined IDs: a set holding at most one pending
// sample per ID never needs more room.
const NumMetricIDs = len(metricNames) - 1

// String returns the metric's autoscale name ("" for an undefined ID).
func (m MetricID) String() string {
	if int(m) < len(metricNames) {
		return metricNames[m]
	}
	return ""
}

// Sample is one metric observation.
type Sample struct {
	ID    MetricID
	Value float64
}

// appendSamples writes count(1), then id(1) value(8) per sample.
func appendSamples(w *Writer, s []Sample) {
	w.U8(uint8(len(s)))
	for _, x := range s {
		w.U8(uint8(x.ID))
		w.F64(x.Value)
	}
}

// readSamples parses appendSamples output; an undefined ID is an error.
func readSamples(r *Reader) []Sample {
	out := make([]Sample, r.U8())
	for i := range out {
		out[i] = Sample{ID: MetricID(r.U8()), Value: r.F64()}
		if r.err == nil && out[i].ID.String() == "" {
			r.err = fmt.Errorf("%w: metric id %d", ErrBadPacket, out[i].ID)
		}
	}
	return out
}

// Report presence bits: the lease is a bare flag, every other bit
// announces one length-prefixed section, in bit order.
const (
	reportLease uint8 = 1 << iota
	reportSamples
	reportSpans
	reportEvents
	reportDigest
	reportMark
)

// Report is the payload of TReport: all a participant tells the
// coordinator outside the barrier, one lossy frame per heartbeat tick.
// AgentID attributes the samples (0 for the client). Lease renews
// AgentID's lease; the client never sets it, so a client report cannot
// pass for a zombie agent. Every other field is an optional section
// framed by its own codec, absent when nil or empty; Dropped (the
// sender's cumulative journal drop counter) rides with Events.
type Report struct {
	AgentID uint64
	Lease   bool
	Samples []Sample
	Spans   *SpanBatch
	Events  []events.Record
	Dropped uint64
	Digest  *VertexDigest
	Mark    *CheckpointMark
}

// presence returns the report's presence byte.
func (rep *Report) presence() uint8 {
	var p uint8
	for bit, on := range [...]bool{rep.Lease, len(rep.Samples) > 0, rep.Spans != nil,
		len(rep.Events) > 0, rep.Digest != nil, rep.Mark != nil} {
		if on {
			p |= 1 << bit
		}
	}
	return p
}

// Empty reports whether rep carries nothing worth a frame.
func (rep *Report) Empty() bool { return rep.presence() == 0 }

// AppendReport appends a report payload to dst: presence(1) agent(8),
// then each present section as len(4) body, bodies encoded in place.
func AppendReport(dst []byte, rep *Report) []byte {
	present := rep.presence()
	w := Writer{buf: dst}
	w.U8(present)
	w.U64(rep.AgentID)
	for bit := reportSamples; bit <= reportMark; bit <<= 1 {
		if present&bit == 0 {
			continue
		}
		off := len(w.buf)
		w.U32(0)
		switch bit {
		case reportSamples:
			appendSamples(&w, rep.Samples)
		case reportSpans:
			w.buf = AppendSpanBatch(w.buf, rep.Spans)
		case reportEvents:
			w.buf = AppendEventBatch(w.buf, rep.Events, rep.Dropped)
		case reportDigest:
			w.buf = AppendVertexDigest(w.buf, rep.Digest)
		case reportMark:
			w.buf = AppendCheckpointMark(w.buf, rep.Mark)
		}
		binary.LittleEndian.PutUint32(w.buf[off:], uint32(len(w.buf)-off-4))
	}
	return w.buf
}

// DecodeReport parses a report. Sections are materialized copies that
// outlive the frame; sections under unknown presence bits are skipped.
func DecodeReport(data []byte) (*Report, error) {
	r := NewReader(data)
	present := r.U8()
	rep := &Report{AgentID: r.U64(), Lease: present&reportLease != 0}
	var err error
	for bit := reportSamples; bit != 0 && err == nil && r.err == nil; bit <<= 1 {
		if present&bit == 0 {
			continue
		}
		body := r.Blob()
		switch {
		case r.err != nil:
		case bit == reportSamples:
			sr := NewReader(body)
			rep.Samples, err = readSamples(sr), sr.err
		case bit == reportSpans:
			rep.Spans, err = DecodeSpanBatch(body)
		case bit == reportEvents:
			rep.Events, rep.Dropped, err = DecodeEventBatch(body)
		case bit == reportDigest:
			rep.Digest, err = DecodeVertexDigest(body)
		case bit == reportMark:
			rep.Mark, err = DecodeCheckpointMark(body)
		}
	}
	if err == nil {
		err = r.Err()
	}
	if err != nil {
		return nil, fmt.Errorf("decode report: %w", err)
	}
	return rep, nil
}

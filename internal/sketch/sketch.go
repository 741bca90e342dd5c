// Package sketch implements the count-min sketch ElGA uses for degree
// estimation (paper §2.4, §3.3.1).
//
// In ElGA any decision that would require global knowledge of the graph —
// principally "how high-degree is vertex u, and across how many agents
// should its edges be split?" — is answered from a small, fixed-size
// count-min sketch that is updated as edges stream in and broadcast through
// the directory system. The sketch only ever overestimates a degree
// (additive error ≤ εm with probability 1−δ for width ⌈e/ε⌉ and depth
// ⌈ln 1/δ⌉), which is safe for replication decisions: a vertex may be
// replicated slightly too eagerly, never too late.
package sketch

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"elga/internal/hashing"
)

// DefaultWidth matches the paper's production setting discussion: a width
// of 2^18 with depth 8 bounds the error on a 100-billion-edge stream below
// a 2-million replication threshold. Scaled-down experiments override it.
const DefaultWidth = 1 << 18

// DefaultDepth is the paper's depth d = 8 (≈ 99.97% confidence).
const DefaultDepth = 8

// Sketch is an add-only count-min sketch over uint64 keys.
//
// A Sketch is not safe for concurrent use; in ElGA's shared-nothing design
// each entity owns its sketch and exchanges copies by message.
type Sketch struct {
	width uint32
	depth uint32
	seeds []uint64 // one per row
	rows  [][]uint32
	count uint64 // total increments applied (m in the error bound)
}

// New creates a sketch with the given width and depth. Width and depth
// must be positive.
func New(width, depth int) *Sketch {
	if width <= 0 || depth <= 0 {
		panic(fmt.Sprintf("sketch: invalid dimensions %dx%d", width, depth))
	}
	s := &Sketch{
		width: uint32(width),
		depth: uint32(depth),
		seeds: make([]uint64, depth),
		rows:  make([][]uint32, depth),
	}
	for i := range s.rows {
		s.rows[i] = make([]uint32, width)
		s.seeds[i] = hashing.Wang(uint64(i)*0x9e3779b97f4a7c15 + 0x1234567)
	}
	return s
}

// NewForError sizes a sketch for additive error ε·m with failure
// probability δ: width ⌈e/ε⌉, depth ⌈ln(1/δ)⌉.
func NewForError(epsilon, delta float64) *Sketch {
	if epsilon <= 0 || epsilon >= 1 || delta <= 0 || delta >= 1 {
		panic("sketch: epsilon and delta must be in (0,1)")
	}
	w := int(math.Ceil(math.E / epsilon))
	d := int(math.Ceil(math.Log(1 / delta)))
	if d < 1 {
		d = 1
	}
	return New(w, d)
}

// Width returns the row width.
func (s *Sketch) Width() int { return int(s.width) }

// Depth returns the number of rows.
func (s *Sketch) Depth() int { return int(s.depth) }

// Count returns the total number of increments applied (m in ε·m).
func (s *Sketch) Count() uint64 { return s.count }

func (s *Sketch) cell(row int, key uint64) *uint32 {
	h := hashing.Combine(s.seeds[row], key)
	return &s.rows[row][uint32(h)%s.width]
}

// Add increments key's count by one in every row.
func (s *Sketch) Add(key uint64) { s.AddN(key, 1) }

// AddN increments key's count by n in every row. Count-min sketches are
// one-directional (add only); ElGA never decrements on edge deletion, which
// keeps the estimate an upper bound on the all-time degree.
func (s *Sketch) AddN(key uint64, n uint32) {
	for row := 0; row < int(s.depth); row++ {
		c := s.cell(row, key)
		// Saturate instead of wrapping: a wrapped counter could
		// under-estimate, violating the one-sided error guarantee.
		if *c > math.MaxUint32-n {
			*c = math.MaxUint32
		} else {
			*c += n
		}
	}
	s.count += uint64(n)
}

// Estimate returns the count-min estimate for key: the minimum across rows,
// which satisfies true ≤ estimate ≤ true + ε·m w.h.p.
func (s *Sketch) Estimate(key uint64) uint64 {
	min := uint32(math.MaxUint32)
	for row := 0; row < int(s.depth); row++ {
		if c := *s.cell(row, key); c < min {
			min = c
		}
	}
	return uint64(min)
}

// Merge adds other into s cell-wise and reports whether any cell's
// replica count, Replicas(cell, threshold, maxReplicas), changed. Both
// sketches must have identical dimensions (and therefore identical row
// seeds). The coordinator merges every agent's sketch delta through it.
//
// The report is exact for routing: Replicas is monotone non-decreasing,
// so Replicas(min_r c_r) = min_r Replicas(c_r), and a key's replica count
// Replicas(Estimate(key)) can only change if one of its cells does. When
// Merge reports false, every key keeps its replica count, so a router
// built from the merged sketch places every edge exactly as one built
// from s before the merge.
func (s *Sketch) Merge(other *Sketch, threshold uint64, maxReplicas int) (bool, error) {
	if other.width != s.width || other.depth != s.depth {
		return false, fmt.Errorf("sketch: merge dimension mismatch %dx%d vs %dx%d",
			s.width, s.depth, other.width, other.depth)
	}
	moved := false
	for r := range s.rows {
		row, orow := s.rows[r], other.rows[r]
		for i, o := range orow {
			if o == 0 {
				continue
			}
			old := row[i]
			v := uint64(old) + uint64(o)
			if v > math.MaxUint32 {
				v = math.MaxUint32
			}
			row[i] = uint32(v)
			if !moved && Replicas(uint64(old), threshold, maxReplicas) != Replicas(v, threshold, maxReplicas) {
				moved = true
			}
		}
	}
	s.count += other.count
	return moved, nil
}

// Clone returns a deep copy.
func (s *Sketch) Clone() *Sketch {
	c := New(int(s.width), int(s.depth))
	for r := range s.rows {
		copy(c.rows[r], s.rows[r])
	}
	c.count = s.count
	return c
}

// Reset zeroes every cell and the total count.
func (s *Sketch) Reset() {
	for r := range s.rows {
		row := s.rows[r]
		for i := range row {
			row[i] = 0
		}
	}
	s.count = 0
}

// SizeBytes returns the serialized size, the quantity the paper's §3.3.1
// sizes against the directory broadcast budget (8 MB at 2^18×8).
func (s *Sketch) SizeBytes() int {
	return 16 + 4*int(s.width)*int(s.depth)
}

// MarshalBinary encodes the sketch: width, depth, count, then rows
// in row-major order, all little-endian. Row seeds are derived from the
// row index so they are not transmitted.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	buf := make([]byte, s.SizeBytes())
	binary.LittleEndian.PutUint32(buf[0:], s.width)
	binary.LittleEndian.PutUint32(buf[4:], s.depth)
	binary.LittleEndian.PutUint64(buf[8:], s.count)
	off := 16
	for _, row := range s.rows {
		for _, c := range row {
			binary.LittleEndian.PutUint32(buf[off:], c)
			off += 4
		}
	}
	return buf, nil
}

// ErrCorrupt reports a malformed serialized sketch.
var ErrCorrupt = errors.New("sketch: corrupt encoding")

// UnmarshalBinary decodes a sketch produced by MarshalBinary, replacing
// the receiver's contents.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	if len(data) < 16 {
		return ErrCorrupt
	}
	w := binary.LittleEndian.Uint32(data[0:])
	d := binary.LittleEndian.Uint32(data[4:])
	cnt := binary.LittleEndian.Uint64(data[8:])
	if w == 0 || d == 0 || w > 1<<28 || d > 1024 {
		return ErrCorrupt
	}
	need := 16 + 4*int(w)*int(d)
	if len(data) != need {
		return ErrCorrupt
	}
	n := New(int(w), int(d))
	n.count = cnt
	off := 16
	for _, row := range n.rows {
		for i := range row {
			row[i] = binary.LittleEndian.Uint32(data[off:])
			off += 4
		}
	}
	*s = *n
	return nil
}

// Replicas converts a degree estimate into a replica count given the
// replication threshold: vertices estimated below the threshold get one
// owner; above it, one extra replica per threshold-multiple, capped at max.
// This is the policy ElGA's Figure 3 lookup applies before the second hash.
func Replicas(estimate, threshold uint64, maxReplicas int) int {
	if threshold == 0 || estimate < threshold || maxReplicas <= 1 {
		return 1
	}
	k := int(estimate / threshold)
	if estimate%threshold != 0 {
		k++
	}
	if k < 1 {
		k = 1
	}
	if k > maxReplicas {
		k = maxReplicas
	}
	return k
}

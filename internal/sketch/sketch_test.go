package sketch

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewDimensions(t *testing.T) {
	s := New(128, 4)
	if s.Width() != 128 || s.Depth() != 4 {
		t.Fatalf("got %dx%d, want 128x4", s.Width(), s.Depth())
	}
	if s.Count() != 0 {
		t.Fatalf("fresh sketch count = %d", s.Count())
	}
}

func TestNewPanicsOnBadDims(t *testing.T) {
	for _, dims := range [][2]int{{0, 4}, {4, 0}, {-1, 2}, {2, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", dims[0], dims[1])
				}
			}()
			New(dims[0], dims[1])
		}()
	}
}

func TestNewForErrorSizing(t *testing.T) {
	s := NewForError(0.01, 0.01)
	if w := s.Width(); w != int(math.Ceil(math.E/0.01)) {
		t.Errorf("width = %d", w)
	}
	if d := s.Depth(); d != int(math.Ceil(math.Log(100))) {
		t.Errorf("depth = %d", d)
	}
}

func TestEstimateNeverUnderestimates(t *testing.T) {
	s := New(64, 4) // deliberately tiny: force collisions
	truth := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		k := uint64(rng.Intn(300))
		s.Add(k)
		truth[k]++
	}
	for k, want := range truth {
		if got := s.Estimate(k); got < want {
			t.Fatalf("Estimate(%d) = %d < true count %d (one-sided bound violated)", k, got, want)
		}
	}
	if s.Count() != 5000 {
		t.Errorf("Count = %d, want 5000", s.Count())
	}
}

func TestEstimateErrorBound(t *testing.T) {
	// With width ⌈e/ε⌉ the additive error should be ≤ ε·m w.h.p.
	const eps = 0.01
	s := NewForError(eps, 0.001)
	const m = 20000
	rng := rand.New(rand.NewSource(7))
	truth := map[uint64]uint64{}
	for i := 0; i < m; i++ {
		k := uint64(rng.Intn(4000))
		s.Add(k)
		truth[k]++
	}
	bound := uint64(eps * m)
	bad := 0
	for k, want := range truth {
		if s.Estimate(k) > want+bound {
			bad++
		}
	}
	if bad > len(truth)/100 {
		t.Errorf("%d/%d keys exceed the εm error bound", bad, len(truth))
	}
}

func TestAddNSaturates(t *testing.T) {
	s := New(8, 2)
	s.AddN(1, math.MaxUint32)
	s.AddN(1, 10)
	if got := s.Estimate(1); got != math.MaxUint32 {
		t.Errorf("expected saturation at MaxUint32, got %d", got)
	}
}

func TestMerge(t *testing.T) {
	a, b := New(256, 4), New(256, 4)
	for i := uint64(0); i < 100; i++ {
		a.Add(i)
		b.AddN(i, 2)
	}
	if _, err := a.Merge(b, 0, 1); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 100; i++ {
		if got := a.Estimate(i); got < 3 {
			t.Fatalf("after merge Estimate(%d) = %d, want >= 3", i, got)
		}
	}
	if a.Count() != 300 {
		t.Errorf("merged count = %d, want 300", a.Count())
	}
}

func TestMergeDimensionMismatch(t *testing.T) {
	if _, err := New(8, 2).Merge(New(16, 2), 0, 1); err == nil {
		t.Error("expected error for width mismatch")
	}
	if _, err := New(8, 2).Merge(New(8, 3), 0, 1); err == nil {
		t.Error("expected error for depth mismatch")
	}
}

// cellsOf decodes a sketch's cells from its wire encoding, so the merge
// report can be checked against the cells themselves rather than through
// Merge's own bookkeeping.
func cellsOf(t *testing.T, s *Sketch) []uint32 {
	t.Helper()
	buf, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cells := make([]uint32, 0, s.Width()*s.Depth())
	for off := 16; off < len(buf); off += 4 {
		cells = append(cells, binary.LittleEndian.Uint32(buf[off:]))
	}
	return cells
}

// TestMergeReportsReplicaMoves is the bucket-aware merge's property test:
// for random sketches and deltas (counters saturated near MaxUint32
// included, splitting disabled by a zero threshold or a single replica
// included), the report must be true exactly when some cell's replica
// count changed, the cells must be the saturating sums, and when the
// report is false every sampled key must keep Replicas(Estimate(key)).
func TestMergeReportsReplicaMoves(t *testing.T) {
	const trials, sampled = 120, 10000
	rng := rand.New(rand.NewSource(12))
	policies := []struct {
		threshold uint64
		max       int
	}{
		{0, 8}, {256, 1}, {1, 2}, {7, 3}, {256, 8}, {1 << 31, 4}, {3, 1 << 20},
	}
	// Deltas straddle the bucket width: many cells stay inside a bucket,
	// some cross one.
	add := func(s *Sketch, keys []uint64, scale uint32) {
		for i := 0; i < 1+rng.Intn(6); i++ {
			k := keys[rng.Intn(len(keys))]
			switch rng.Intn(8) {
			case 0:
				s.AddN(k, math.MaxUint32-uint32(rng.Intn(1000)))
			case 1:
				s.AddN(k, uint32(rng.Intn(1<<20)))
			default:
				s.AddN(k, 1+uint32(rng.Intn(int(scale))))
			}
		}
	}
	var neutral, moved int
	for trial := 0; trial < trials; trial++ {
		p := policies[trial%len(policies)]
		s := New(16+rng.Intn(48), 1+rng.Intn(4))
		keys := make([]uint64, 32)
		for i := range keys {
			keys[i] = rng.Uint64()
		}
		scale := uint32(4)
		if p.threshold > 0 && p.threshold < 1<<20 {
			scale = uint32(p.threshold)
		}
		add(s, keys, 8*scale)
		delta := New(s.Width(), s.Depth())
		add(delta, keys, scale/2+1)

		sample := append([]uint64(nil), keys...)
		for len(sample) < sampled {
			sample = append(sample, rng.Uint64())
		}
		before := make([]int, len(sample))
		for i, k := range sample {
			before[i] = Replicas(s.Estimate(k), p.threshold, p.max)
		}
		oldCells, deltaCells := cellsOf(t, s), cellsOf(t, delta)

		got, err := s.Merge(delta, p.threshold, p.max)
		if err != nil {
			t.Fatal(err)
		}
		newCells := cellsOf(t, s)
		want := false
		for i := range newCells {
			sum := uint64(oldCells[i]) + uint64(deltaCells[i])
			if sum > math.MaxUint32 {
				sum = math.MaxUint32
			}
			if uint64(newCells[i]) != sum {
				t.Fatalf("trial %d: cell %d = %d, want saturating sum %d", trial, i, newCells[i], sum)
			}
			if Replicas(uint64(oldCells[i]), p.threshold, p.max) != Replicas(sum, p.threshold, p.max) {
				want = true
			}
		}
		if got != want {
			t.Fatalf("trial %d (threshold=%d max=%d): Merge reported %v, cells say %v",
				trial, p.threshold, p.max, got, want)
		}
		if got {
			moved++
			continue
		}
		neutral++
		for i, k := range sample {
			if after := Replicas(s.Estimate(k), p.threshold, p.max); after != before[i] {
				t.Fatalf("trial %d (threshold=%d max=%d): key %d moved %d -> %d but Merge reported no move",
					trial, p.threshold, p.max, k, before[i], after)
			}
		}
	}
	if neutral < trials/5 || moved < trials/5 {
		t.Fatalf("schedule exercised %d neutral and %d moving merges; want both >= %d", neutral, moved, trials/5)
	}
}

func TestCloneIndependent(t *testing.T) {
	a := New(16, 2)
	a.Add(5)
	c := a.Clone()
	a.AddN(5, 100)
	if c.Estimate(5) != 1 {
		t.Errorf("clone mutated with original: %d", c.Estimate(5))
	}
	if c.Count() != 1 {
		t.Errorf("clone count = %d", c.Count())
	}
}

func TestReset(t *testing.T) {
	s := New(16, 2)
	s.AddN(9, 42)
	s.Reset()
	if s.Estimate(9) != 0 || s.Count() != 0 {
		t.Error("Reset did not clear sketch")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	s := New(64, 3)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		s.Add(uint64(rng.Intn(500)))
	}
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != s.SizeBytes() {
		t.Fatalf("encoded %d bytes, SizeBytes says %d", len(data), s.SizeBytes())
	}
	var got Sketch
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if got.Count() != s.Count() || got.Width() != s.Width() || got.Depth() != s.Depth() {
		t.Fatal("header mismatch after round trip")
	}
	for k := uint64(0); k < 500; k++ {
		if got.Estimate(k) != s.Estimate(k) {
			t.Fatalf("Estimate(%d) differs after round trip", k)
		}
	}
}

func TestUnmarshalRejectsCorrupt(t *testing.T) {
	s := New(8, 2)
	data, _ := s.MarshalBinary()
	cases := [][]byte{
		nil,
		data[:10],
		data[:len(data)-1],
		append(append([]byte{}, data...), 0),
	}
	for i, c := range cases {
		var g Sketch
		if err := g.UnmarshalBinary(c); err == nil {
			t.Errorf("case %d: corrupt data accepted", i)
		}
	}
	// Zero width/depth header.
	bad := append([]byte{}, data...)
	bad[0], bad[1], bad[2], bad[3] = 0, 0, 0, 0
	var g Sketch
	if err := g.UnmarshalBinary(bad); err == nil {
		t.Error("zero-width header accepted")
	}
}

func TestSizeBytesMatchesPaperExample(t *testing.T) {
	// Paper §3.3.1: width 2^18, depth 8 fits in 8 MB.
	s := New(1<<18, 8)
	if sz := s.SizeBytes(); sz > 9<<20 {
		t.Errorf("2^18 x 8 sketch is %d bytes, paper says ~8 MB", sz)
	}
}

func TestReplicasPolicy(t *testing.T) {
	cases := []struct {
		est, thr uint64
		max      int
		want     int
	}{
		{0, 100, 8, 1},
		{99, 100, 8, 1},
		{100, 100, 8, 1},
		{101, 100, 8, 2},
		{250, 100, 8, 3},
		{1000, 100, 8, 8},   // capped
		{1000, 100, 1, 1},   // max 1 disables splitting
		{1000, 0, 8, 1},     // threshold 0 disables splitting
		{200, 100, 8, 2},    // exact multiple
		{10_000, 100, 4, 4}, // cap applies
	}
	for _, c := range cases {
		if got := Replicas(c.est, c.thr, c.max); got != c.want {
			t.Errorf("Replicas(%d,%d,%d) = %d, want %d", c.est, c.thr, c.max, got, c.want)
		}
	}
}

// Property: for any sequence of adds, estimate >= truth (monotone
// one-sided error) and merge(a,b) >= max of either estimate.
func TestOneSidedProperty(t *testing.T) {
	f := func(keys []uint16) bool {
		s := New(32, 3)
		truth := map[uint64]uint64{}
		for _, k := range keys {
			s.Add(uint64(k))
			truth[uint64(k)]++
		}
		for k, want := range truth {
			if s.Estimate(k) < want {
				return false
			}
		}
		return s.Count() == uint64(len(keys))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMergeGEQComponentsProperty(t *testing.T) {
	f := func(ka, kb []uint8) bool {
		a, b := New(16, 2), New(16, 2)
		for _, k := range ka {
			a.Add(uint64(k))
		}
		for _, k := range kb {
			b.Add(uint64(k))
		}
		ac, bc := a.Clone(), b.Clone()
		if _, err := a.Merge(b, 0, 1); err != nil {
			return false
		}
		for k := uint64(0); k < 256; k++ {
			if a.Estimate(k) < ac.Estimate(k) || a.Estimate(k) < bc.Estimate(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAdd(b *testing.B) {
	s := New(1<<14, 8)
	for i := 0; i < b.N; i++ {
		s.Add(uint64(i))
	}
}

func BenchmarkEstimate(b *testing.B) {
	s := New(1<<14, 8)
	for i := 0; i < 1<<16; i++ {
		s.Add(uint64(i))
	}
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += s.Estimate(uint64(i))
	}
	benchSink = sink
}

var benchSink uint64

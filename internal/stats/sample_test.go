package stats

import (
	"math"
	"slices"
	"sort"
	"testing"
)

// sliceSample is the flat-slice Sample the block storage replaced, kept
// as the reference: one []float64 grown by append. Its Percentile sorts a
// cached copy, as Sample's does, so Values and Mean stay in insertion
// order after a query.
type sliceSample struct {
	xs     []float64
	sorted []float64
}

func (s *sliceSample) Add(v float64) {
	s.xs = append(s.xs, v)
	s.sorted = nil
}

func (s *sliceSample) Count() int { return len(s.xs) }

func (s *sliceSample) Percentile(p float64) float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	if s.sorted == nil {
		s.sorted = slices.Clone(s.xs)
		sort.Float64s(s.sorted)
	}
	xs := s.sorted
	if p <= 0 {
		return xs[0]
	}
	if p >= 100 {
		return xs[len(xs)-1]
	}
	rank := p / 100 * float64(len(xs)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

func (s *sliceSample) Values() []float64 { return slices.Clone(s.xs) }

func (s *sliceSample) Mean() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range s.xs {
		sum += v
	}
	return sum / float64(len(s.xs))
}

func (s *sliceSample) Max() float64 { return s.Percentile(100) }

// clone is a reference value copy: unlike Sample, a flat slice shares its
// backing array with a plain struct copy, so the reference copies deeply.
func (s *sliceSample) clone() sliceSample { return sliceSample{xs: slices.Clone(s.xs)} }

// samplePair is a Sample under test beside its reference, or a value
// copy of one beside a deep copy of the reference.
type samplePair struct {
	got  Sample
	want sliceSample
}

// sameBits reports whether a and b are the same float64 bit for bit.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkSample compares every read-only query of got against want.
func checkSample(t *testing.T, what string, got *Sample, want *sliceSample, p float64) {
	t.Helper()
	if got.Count() != want.Count() {
		t.Fatalf("%s: Count %d, reference %d", what, got.Count(), want.Count())
	}
	gv, wv := got.Values(), want.Values()
	if len(gv) != len(wv) {
		t.Fatalf("%s: %d values, reference %d", what, len(gv), len(wv))
	}
	for i := range gv {
		if !sameBits(gv[i], wv[i]) {
			t.Fatalf("%s: Values[%d] = %v, reference %v", what, i, gv[i], wv[i])
		}
	}
	if g, w := got.Mean(), want.Mean(); !sameBits(g, w) {
		t.Fatalf("%s: Mean %v, reference %v", what, g, w)
	}
	if g, w := got.Percentile(p), want.Percentile(p); !sameBits(g, w) {
		t.Fatalf("%s: Percentile(%v) %v, reference %v", what, p, g, w)
	}
	if g, w := got.Max(), want.Max(); !sameBits(g, w) {
		t.Fatalf("%s: Max %v, reference %v", what, g, w)
	}
}

// sampleValue maps a byte to an observation: mostly small integers (so
// ties and repeated values are common), plus signed zeros, infinities,
// NaN and fractions.
func sampleValue(b byte) float64 {
	switch b {
	case 0:
		return math.Copysign(0, -1)
	case 1:
		return math.Inf(1)
	case 2:
		return math.Inf(-1)
	case 3:
		return math.NaN()
	case 4:
		return 0
	}
	if b&1 == 1 {
		return float64(b) / 7
	}
	return float64(b % 32)
}

// runSampleOps drives a Sample and its reference through the op stream
// in data and compares them, and every value copy taken along the way,
// after each op. Ops (op byte mod 6, then an argument byte): add one
// value, add a run of up to 255·64 values, Percentile, take a value
// copy, Add and query the copies, query everything.
func runSampleOps(t *testing.T, data []byte) {
	var a samplePair
	var snaps []samplePair
	for i := 0; i+1 < len(data); i += 2 {
		op, arg := data[i]%6, data[i+1]
		p := float64(arg)/2 - 10 // covers p < 0, fractions, p > 100
		switch op {
		case 0:
			v := sampleValue(arg)
			a.got.Add(v)
			a.want.Add(v)
		case 1:
			for k := 0; k < int(arg)*64; k++ {
				v := sampleValue(byte(k*31 + int(arg)))
				a.got.Add(v)
				a.want.Add(v)
			}
		case 2:
			if g, w := a.got.Percentile(p), a.want.Percentile(p); !sameBits(g, w) {
				t.Fatalf("op %d: Percentile(%v) %v, reference %v", i/2, p, g, w)
			}
		case 3:
			snaps = append(snaps, samplePair{got: a.got, want: a.want.clone()})
		case 4:
			for k := 0; k <= int(arg%8); k++ {
				v := sampleValue(arg + byte(k))
				a.got.Add(v)
				a.want.Add(v)
			}
			for j := range snaps {
				s := &snaps[j]
				if g, w := s.got.Percentile(p), s.want.Percentile(p); !sameBits(g, w) {
					t.Fatalf("op %d: copy %d Percentile(%v) %v, reference %v", i/2, j, p, g, w)
				}
			}
		case 5:
			checkSample(t, "sample", &a.got, &a.want, p)
		}
		for j := range snaps {
			checkSample(t, "copy", &snaps[j].got, &snaps[j].want, p)
		}
	}
	checkSample(t, "sample at end", &a.got, &a.want, 50)
}

// FuzzSampleMatchesSlice checks the block-storage Sample against the
// flat-slice reference bit for bit over random interleavings of Add,
// Percentile, Values, Mean, Max, Count and value copies.
func FuzzSampleMatchesSlice(f *testing.F) {
	f.Add([]byte{0, 5, 0, 9, 2, 100, 5, 50})
	f.Add([]byte{1, 80, 3, 0, 1, 80, 5, 120, 4, 3, 1, 2, 5, 218})
	f.Add([]byte{1, 255, 3, 1, 1, 70, 5, 220, 4, 7, 1, 255, 5, 0})
	f.Add([]byte{0, 0, 0, 4, 0, 3, 0, 1, 0, 2, 2, 20, 5, 220, 3, 0, 4, 0, 5, 0})
	// Queries between changes: a stale sorted copy after Add (p105 after
	// adding +Inf) reads the old extreme.
	f.Add([]byte{0, 40, 0, 41, 2, 230, 0, 1, 2, 230, 5, 230})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		runSampleOps(t, data)
	})
}

// TestSampleAddAllocatesBlocks pins Add's allocations exactly: one per
// block (8, 16, 32, … 4096, then 4096 values each) plus the block table,
// which exists from the second block on with room for 8 entries and
// doubles when full. Growth never copies a stored value.
func TestSampleAddAllocatesBlocks(t *testing.T) {
	for _, tc := range []struct{ n, allocs int }{
		{0, 0},
		{1, 1},
		{8, 1},      // the first block alone: no table
		{9, 3},      // 8 + 16, and the table
		{24, 3},     // two full blocks
		{25, 4},     // third block (32)
		{2040, 9},   // 8 … 1024: eight blocks fill the table
		{2041, 11},  // the ninth block (2048) doubles the table
		{4088, 11},  // 8 … 2048
		{4089, 12},  // the first 4096-value block
		{32760, 18}, // 16 blocks fill the doubled table
		{32761, 20}, // the 17th block doubles it again
	} {
		got := testing.AllocsPerRun(20, func() {
			var s Sample
			for i := 0; i < tc.n; i++ {
				s.Add(float64(i))
			}
		})
		if int(got) != tc.allocs {
			t.Errorf("%d Adds: %v allocations, want %d", tc.n, got, tc.allocs)
		}
	}
}

// TestSamplePercentileAllocatesOncePerChange: the first Percentile (or
// Max) after an Add sorts one new copy; later queries reuse it.
func TestSamplePercentileAllocatesOncePerChange(t *testing.T) {
	var s Sample
	for i := 0; i < 5000; i++ { // 912 values into a 4096-value block
		s.Add(float64((i * 7919) % 5000))
	}
	if got := testing.AllocsPerRun(100, func() {
		s.Add(1)
		_ = s.Percentile(50)
		_ = s.Percentile(99)
		_ = s.Max()
	}); got != 1 {
		t.Errorf("Add then three queries: %v allocations, want 1", got)
	}
	if got := testing.AllocsPerRun(100, func() { _ = s.Percentile(50) }); got != 0 {
		t.Errorf("query of an unchanged sample: %v allocations, want 0", got)
	}
}

// TestSampleValuesInsertionOrder: a percentile query sorts a copy, so
// Values and the insertion-order Mean are unchanged by it.
func TestSampleValuesInsertionOrder(t *testing.T) {
	var s Sample
	in := []float64{3, 1, 2, 0.1, 0.2, 1e16}
	for _, v := range in {
		s.Add(v)
	}
	mean := s.Mean()
	_ = s.Percentile(50)
	if got := s.Values(); !slices.Equal(got, in) {
		t.Fatalf("Values after Percentile = %v, want insertion order %v", got, in)
	}
	if got := s.Mean(); !sameBits(got, mean) {
		t.Fatalf("Mean after Percentile = %v, before %v", got, mean)
	}
}

// TestSampleCopyKeepsItsObservations: a value copy (every experiment
// result, Availability's report windows) sees exactly the observations
// taken before the copy while the original keeps adding past several
// block boundaries, and each side's percentile cache stays its own.
func TestSampleCopyKeepsItsObservations(t *testing.T) {
	var s Sample
	for i := 0; i < 5; i++ {
		s.Add(float64(10 - i))
	}
	early := s // only the first block, no block table yet
	for i := 0; i < 3000; i++ {
		s.Add(float64(i % 97))
	}
	_ = s.Percentile(50)
	mid := s // shares s's sorted copy
	for i := 0; i < 20000; i++ {
		s.Add(float64(-i))
	}
	if got, want := early.Values(), []float64{10, 9, 8, 7, 6}; !slices.Equal(got, want) {
		t.Fatalf("early copy Values = %v, want %v", got, want)
	}
	if got := early.Percentile(0); got != 6 {
		t.Fatalf("early copy p0 = %v, want 6", got)
	}
	if got := mid.Count(); got != 3005 {
		t.Fatalf("mid copy Count = %d, want 3005", got)
	}
	if got := mid.Percentile(0); got != 0 {
		t.Fatalf("mid copy p0 = %v, want 0 (the original's later negatives leaked in)", got)
	}
	if got := s.Percentile(0); got != -19999 {
		t.Fatalf("original p0 = %v, want -19999", got)
	}
	if got := mid.Max(); got != 96 {
		t.Fatalf("mid copy Max = %v, want 96", got)
	}
}

package rng

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 64; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 60 {
		t.Fatalf("seed 0 produced low-entropy stream: %d distinct of 64", len(seen))
	}
}

func TestIntnRange(t *testing.T) {
	r := New(7)
	for _, n := range []int{1, 2, 3, 10, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(99)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d count %d too far from %f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := New(seed)
		for i := 0; i < 50; i++ {
			f := r.Float64()
			if f < 0 || f >= 1 {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestPermIsPermutation(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := New(seed)
		n := 1 + r.Intn(64)
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestExpMean(t *testing.T) {
	r := New(3)
	const rate = 2.0
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Exp(rate)
	}
	mean := sum / n
	if math.Abs(mean-1/rate) > 0.01 {
		t.Fatalf("Exp(%f) mean = %f, want ~%f", rate, mean, 1/rate)
	}
}

func TestPoissonMean(t *testing.T) {
	r := New(4)
	for _, mean := range []float64{0.5, 3, 20, 200} {
		sum := 0.0
		const n = 50000
		for i := 0; i < n; i++ {
			sum += float64(r.Poisson(mean))
		}
		got := sum / n
		if math.Abs(got-mean) > 0.05*mean+0.05 {
			t.Errorf("Poisson(%f) mean = %f", mean, got)
		}
	}
}

func TestPoissonNonNegative(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		if r.Poisson(100) < 0 {
			t.Fatal("negative Poisson sample")
		}
	}
	if r.Poisson(0) != 0 || r.Poisson(-1) != 0 {
		t.Fatal("Poisson of non-positive mean should be 0")
	}
}

func TestNormMoments(t *testing.T) {
	r := New(6)
	sum, sumsq := 0.0, 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 || math.Abs(variance-1) > 0.03 {
		t.Fatalf("Norm moments mean=%f var=%f", mean, variance)
	}
}

func TestZipfRangeAndSkew(t *testing.T) {
	r := New(8)
	z := NewZipf(r, 100, 1.2)
	counts := make([]int, 100)
	for i := 0; i < 50000; i++ {
		v := z.Next()
		if v < 0 || v >= 100 {
			t.Fatalf("zipf out of range: %d", v)
		}
		counts[v]++
	}
	if counts[0] <= counts[50] {
		t.Fatalf("zipf not skewed: counts[0]=%d counts[50]=%d", counts[0], counts[50])
	}
}

func TestZipfZeroSkewUniform(t *testing.T) {
	r := New(9)
	z := NewZipf(r, 10, 0)
	counts := make([]int, 10)
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[z.Next()]++
	}
	want := float64(draws) / 10
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("bucket %d count %d not uniform", i, c)
		}
	}
}

func TestEmpiricalCDFBoundsAndMean(t *testing.T) {
	e := NewEmpiricalCDF([]float64{1, 2, 10}, []float64{0, 0.5, 1})
	r := New(10)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		v := e.Sample(r)
		if v < 1 || v > 10 {
			t.Fatalf("sample %f out of support", v)
		}
		sum += v
	}
	// Mean of the piecewise-linear CDF: 0.5*(1.5) + 0.5*(6) = 3.75.
	wantMean := e.Mean()
	if math.Abs(wantMean-3.75) > 1e-9 {
		t.Fatalf("Mean() = %f, want 3.75", wantMean)
	}
	if math.Abs(sum/n-wantMean) > 0.05 {
		t.Fatalf("sample mean %f, want ~%f", sum/n, wantMean)
	}
}

func TestEmpiricalCDFRejectsMalformed(t *testing.T) {
	cases := []struct {
		values, probs []float64
	}{
		{[]float64{1}, []float64{1}},
		{[]float64{1, 2}, []float64{0, 0.9}},
		{[]float64{2, 1}, []float64{0, 1}},
		{[]float64{1, 2}, []float64{0.5, 0.4}},
		{[]float64{1, 2, 3}, []float64{0, 1}},
	}
	for i, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: malformed CDF did not panic", i)
				}
			}()
			NewEmpiricalCDF(c.values, c.probs)
		}()
	}
}

func TestSplitIndependence(t *testing.T) {
	r := New(11)
	a := r.Split()
	b := r.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split streams overlapped %d times", same)
	}
}

func TestSplitNIntoMatchesSplitN(t *testing.T) {
	// SplitNInto must be derivation-identical to SplitN (and therefore to
	// n serial Split calls): a pooled simulator reseeding its per-node
	// streams in place must draw the exact sequences a fresh one would.
	a, b, c := New(12), New(12), New(12)
	byValue := a.SplitN(8)
	inPlace := make([]RNG, 8)
	b.SplitNInto(inPlace)
	for i := range byValue {
		serial := c.Split()
		for d := 0; d < 16; d++ {
			want := serial.Uint64()
			if got := byValue[i].Uint64(); got != want {
				t.Fatalf("SplitN stream %d draw %d = %d, Split gives %d", i, d, got, want)
			}
			if got := inPlace[i].Uint64(); got != want {
				t.Fatalf("SplitNInto stream %d draw %d = %d, Split gives %d", i, d, got, want)
			}
		}
	}
	if a.Uint64() != b.Uint64() {
		t.Fatal("SplitN and SplitNInto left the parent stream in different states")
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	_ = sink
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink ^= r.Intn(4096)
	}
	_ = sink
}

func TestShuffleIsPermutation(t *testing.T) {
	r := New(21)
	p := []int{0, 1, 2, 3, 4, 5, 6, 7}
	r.Shuffle(p)
	seen := make([]bool, 8)
	for _, v := range p {
		if v < 0 || v >= 8 || seen[v] {
			t.Fatalf("shuffle broke permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestNewZipfPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewZipf(0) did not panic")
		}
	}()
	NewZipf(New(1), 0, 1)
}

func TestExpPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) did not panic")
		}
	}()
	New(1).Exp(0)
}

// mul64 is the portable 128-bit product Intn used before it called
// bits.Mul64; it stays here as the reference the intrinsic is checked
// against.
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	hi = aHi*bHi + t>>32
	t = t&mask + aLo*bHi
	hi += t >> 32
	lo = a * b
	return hi, lo
}

func TestMul64MatchesReference(t *testing.T) {
	edges := []uint64{0, 1, 2, 1<<32 - 1, 1 << 32, 1<<32 + 1, 1<<63 - 1, 1 << 63, math.MaxUint64 - 1, math.MaxUint64}
	check := func(a, b uint64) {
		t.Helper()
		wantHi, wantLo := mul64(a, b)
		if hi, lo := bits.Mul64(a, b); hi != wantHi || lo != wantLo {
			t.Fatalf("bits.Mul64(%#x, %#x) = (%#x, %#x), reference (%#x, %#x)", a, b, hi, lo, wantHi, wantLo)
		}
	}
	for _, a := range edges {
		for _, b := range edges {
			check(a, b)
		}
	}
	r := New(3)
	for i := 0; i < 100000; i++ {
		check(r.Uint64(), r.Uint64())
	}
}

// TestIntnSequencePinned pins Intn's output for a fixed seed across bounds
// from 1 to 2^62: every simulated route draw goes through Intn, so a change
// here changes every simulation digest.
func TestIntnSequencePinned(t *testing.T) {
	bounds := []int{1, 2, 3, 7, 10, 128, 1000, 1 << 20, 1<<40 + 3, 1<<62 + 5}
	want := []int{0, 0, 2, 6, 9, 98, 719, 891298, 837139985008, 3147258357027704415,
		0, 1, 0, 4, 8, 78, 851, 741909, 778266525252, 428241451981137462}
	r := New(42)
	for i, w := range want {
		if got := r.Intn(bounds[i%len(bounds)]); got != w {
			t.Fatalf("draw %d: Intn(%d) = %d, want %d", i, bounds[i%len(bounds)], got, w)
		}
	}
}

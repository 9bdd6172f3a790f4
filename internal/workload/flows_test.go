package workload

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/rng"
)

// windowCase is one PoissonFlows configuration for the Window tests:
// a traffic matrix family, a size distribution, a load and a seed,
// generating the consecutive windows [edges[i], edges[i+1]).
type windowCase struct {
	name  string
	tm    func(t *testing.T) *Matrix
	size  SizeDist
	load  float64
	seed  uint64
	edges []int64
}

func windowCases() []windowCase {
	locality := func(n, nc int, x float64) func(t *testing.T) *Matrix {
		return func(t *testing.T) *Matrix {
			tm, err := Locality(mustCliques(t, n, nc), x)
			if err != nil {
				t.Fatal(err)
			}
			return tm
		}
	}
	return []windowCase{
		{"uniform-fixed", func(*testing.T) *Matrix { return Uniform(16) }, FixedSize(8), 0.3, 1, []int64{0, 5000}},
		{"locality-websearch", locality(32, 4, 0.56), WebSearch(), 0.4, 7, []int64{0, 20000}},
		{"locality-datamining-offset", locality(16, 4, 0.9), DataMining(), 0.6, 42, []int64{1000, 201000}},
		{"gravity-facebook-split", func(t *testing.T) *Matrix {
			tm, err := Gravity(mustCliques(t, 16, 4), []float64{1, 2, 3, 4})
			if err != nil {
				t.Fatal(err)
			}
			return tm
		}, FacebookLike(), 0.5, 3, []int64{0, 20000, 20000, 50000}},
		{"hotspot-capped-tiny", func(t *testing.T) *Matrix {
			tm, err := Hotspot(8, 2, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			return tm
		}, NewCapped(WebSearch(), 64), 0.3, 9, []int64{0, 10, 10, 2000}},
		{"uniform-empty", func(*testing.T) *Matrix { return Uniform(4) }, FixedSize(1), 0.5, 5, []int64{100, 100}},
	}
}

// windows runs one case and returns every window it generates.
func (c windowCase) windows(t *testing.T) [][]Flow {
	t.Helper()
	g, err := NewPoissonFlows(c.tm(t), c.size, c.load, c.seed)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]Flow
	for i := 0; i+1 < len(c.edges); i += 2 {
		out = append(out, g.Window(c.edges[i], c.edges[i+1]))
	}
	return out
}

// flowDigest hashes every field of every flow, in order.
func flowDigest(ws [][]Flow) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		_, _ = h.Write(buf[:]) // hash.Hash writes never fail
	}
	for _, w := range ws {
		put(int64(len(w)))
		for _, f := range w {
			put(int64(f.ID))
			put(int64(f.Src))
			put(int64(f.Dst))
			put(int64(f.Size))
			put(f.Arrival)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestPoissonWindowGolden pins Window's output — every flow's ID,
// endpoints, size and arrival, in order — to digests of the original
// append-and-reflection-sort implementation, so generation changes can
// only ever be pure refactors.
func TestPoissonWindowGolden(t *testing.T) {
	want := map[string]string{
		"uniform-fixed":              "68b3296e3325fd6f",
		"locality-websearch":         "c2e551e2ac683141",
		"locality-datamining-offset": "f2910a2b5a6612be",
		"gravity-facebook-split":     "d3c4bc586f817687",
		"hotspot-capped-tiny":        "d2d258837752010f",
		"uniform-empty":              "a8c7f832281a39c5",
	}
	for _, c := range windowCases() {
		if got := flowDigest(c.windows(t)); got != want[c.name] {
			t.Errorf("%s: digest %s, want %s", c.name, got, want[c.name])
		}
	}
}

// TestPoissonWindowProperties checks every window is sorted by
// (Arrival, ID), numbers its flows contiguously after the previous
// window, and only holds arrivals inside [from, to).
func TestPoissonWindowProperties(t *testing.T) {
	for _, c := range windowCases() {
		nextID := 1
		for i, w := range c.windows(t) {
			from, to := c.edges[2*i], c.edges[2*i+1]
			ids := make(map[int]bool, len(w))
			for j, f := range w {
				if f.Arrival < from || f.Arrival >= to {
					t.Fatalf("%s: flow %d arrives at %d outside [%d,%d)", c.name, f.ID, f.Arrival, from, to)
				}
				if j > 0 {
					p := w[j-1]
					if p.Arrival > f.Arrival || (p.Arrival == f.Arrival && p.ID >= f.ID) {
						t.Fatalf("%s: flows %d and %d out of (Arrival, ID) order", c.name, p.ID, f.ID)
					}
				}
				ids[f.ID] = true
			}
			for id := nextID; id < nextID+len(w); id++ {
				if !ids[id] {
					t.Fatalf("%s: window %d IDs not contiguous from %d: %d missing", c.name, i, nextID, id)
				}
			}
			nextID += len(w)
		}
	}
}

// TestPoissonWindowAllocs bounds Window to its one presized output
// slice, with room for one regrow: no append doubling, no reflective
// sort.
func TestPoissonWindowAllocs(t *testing.T) {
	tm, err := Locality(mustCliques(t, 64, 8), 0.56)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewPoissonFlows(tm, FixedSize(8), 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	from := int64(0)
	allocs := testing.AllocsPerRun(20, func() {
		g.Window(from, from+5000)
		from += 5000
	})
	if allocs > 2 {
		t.Fatalf("Window made %.0f allocations per call, want at most 2", allocs)
	}
}

// referenceWindow is Window as first written, kept as the oracle for
// its optimized form: append flows source-major, drawing each
// destination with SampleDest's linear scan, then sort by (Arrival, ID)
// with a comparison sort.
func referenceWindow(g *PoissonFlows, from, to int64) []Flow {
	mean := g.Size.MeanCells()
	var out []Flow
	for src := 0; src < g.TM.N; src++ {
		rate := g.Load * g.TM.RowSum(src) / mean
		if rate <= 0 {
			continue
		}
		t := float64(from) + g.rng.Exp(rate)
		for t < float64(to) {
			g.nextID++
			out = append(out, Flow{
				ID:      g.nextID,
				Src:     src,
				Dst:     g.TM.SampleDest(src, g.rng),
				Size:    g.Size.Sample(g.rng),
				Arrival: int64(t),
			})
			t += g.rng.Exp(rate)
		}
	}
	slices.SortFunc(out, func(a, b Flow) int {
		if c := cmp.Compare(a.Arrival, b.Arrival); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
	return out
}

// twinGenerators returns two generators with the same matrix, sizes,
// load and seed: one for Window, one for referenceWindow.
func twinGenerators(t testing.TB, tm *Matrix, size SizeDist, load float64, seed uint64) (*PoissonFlows, *PoissonFlows) {
	t.Helper()
	g, err := NewPoissonFlows(tm, size, load, seed)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewPoissonFlows(tm, size, load, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g, ref
}

// sparseGravity is an n-node gravity matrix with zero-rate entries
// scattered through every row and a zero final column, so destination
// sampling must skip zero runs, trailing ones included.
func sparseGravity(t *testing.T, n, nc int) *Matrix {
	t.Helper()
	mass := make([]float64, nc)
	for i := range mass {
		mass[i] = float64(1 + i%5)
	}
	tm, err := Gravity(mustCliques(t, n, nc), mass)
	if err != nil {
		t.Fatal(err)
	}
	for s, row := range tm.Rates {
		for d := range row {
			if (s+d)%3 == 0 || d == n-1 {
				row[d] = 0
			}
		}
	}
	return tm
}

// TestWindowMatchesReference checks Window against referenceWindow flow
// for flow: the golden cases, a one-slot window, a high-load eight-slot
// window whose slots each hold hundreds of flows (so ties break by ID
// in buckets too large for insertion sort), an N=512 gravity matrix
// with zero-rate entries, and a sparse 2^32-slot window. The sparse
// window must also allocate no more than its output plus O(N): the
// sort's scratch may not grow with the slot span.
func TestWindowMatchesReference(t *testing.T) {
	cases := append(windowCases(),
		windowCase{"one-slot", func(*testing.T) *Matrix { return Uniform(32) }, FixedSize(1), 0.9, 4, []int64{500, 501}},
		windowCase{"high-load-8-slots", func(*testing.T) *Matrix { return Uniform(256) }, FixedSize(1), 1, 6, []int64{0, 8, 8, 16}},
		windowCase{"gravity-512-zeros", func(t *testing.T) *Matrix { return sparseGravity(t, 512, 16) }, FixedSize(4), 0.3, 8, []int64{0, 2000}},
		windowCase{"sparse-2^32", func(*testing.T) *Matrix { return Uniform(16) }, FixedSize(1), 1e-6, 10, []int64{1 << 20, 1<<20 + 1<<32}},
	)
	for _, c := range cases {
		tm := c.tm(t)
		g, ref := twinGenerators(t, tm, c.size, c.load, c.seed)
		for i := 0; i+1 < len(c.edges); i += 2 {
			from, to := c.edges[i], c.edges[i+1]
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			got := g.Window(from, to)
			runtime.ReadMemStats(&after)
			want := referenceWindow(ref, from, to)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: window [%d,%d): %d flows differ from the %d-flow reference", c.name, from, to, len(got), len(want))
			}
			if c.name == "sparse-2^32" {
				out := uint64(cap(got)) * uint64(unsafe.Sizeof(Flow{}))
				bound := out + uint64(8*tm.N) + 32<<10
				if alloc := after.TotalAlloc - before.TotalAlloc; alloc > bound {
					t.Fatalf("%s: Window allocated %d bytes, want at most %d (output %d + O(N))", c.name, alloc, bound, out)
				}
			}
		}
	}
}

// TestSearchDestMatchesScanDest holds Window's destination search to
// SampleDest's rule on Locality, Gravity and Hotspot rows and on hand
// rows with zero runs, trailing zeros and a lone last entry: at ≥ 1e5
// random draws (SampleDest itself against the same RNG stream), on and
// just below every cumulative boundary, and at and past the row total,
// where both must fall back to the last positive entry.
func TestSearchDestMatchesScanDest(t *testing.T) {
	loc, err := Locality(mustCliques(t, 32, 4), 0.56)
	if err != nil {
		t.Fatal(err)
	}
	grav := sparseGravity(t, 48, 6)
	hot, err := Hotspot(16, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	hand := NewMatrix(6)
	hand.Rates = [][]float64{
		{0, 0.5, 0, 0.25, 0, 0},
		{0, 0, 0, 0, 0, 2},
		{1e-300, 3, 0, 0, 1e-300, 0},
		{0.1, 0.2, 0.3, 0, 0.4, 0.5},
		{0, 0, 0, 0, 0, 0},
		{0.7, 0, 0, 0, 0, 0},
	}
	var draws, boundaries, fallbacks int
	for _, m := range []*Matrix{loc, grav, hot, hand} {
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}
		cum := make([]float64, m.N)
		r1, r2 := rng.New(uint64(m.N)), rng.New(uint64(m.N))
		for src, row := range m.Rates {
			total, last := cumRow(cum, row)
			if total != m.RowSum(src) {
				t.Fatalf("N=%d row %d: cumulative total %g, RowSum %g", m.N, src, total, m.RowSum(src))
			}
			if total <= 0 {
				continue
			}
			check := func(u float64) {
				t.Helper()
				if got, want := searchDest(cum, u, last), scanDest(row, u); got != want {
					t.Fatalf("N=%d row %d u=%v: search picks %d, scan picks %d", m.N, src, u, got, want)
				}
			}
			for i := 0; i < 1e5/m.N+1; i++ {
				want := m.SampleDest(src, r1)
				if got := searchDest(cum, r2.Float64()*total, last); got != want {
					t.Fatalf("N=%d row %d draw %d: search picks %d, SampleDest %d", m.N, src, i, got, want)
				}
				draws++
			}
			check(0)
			for _, c := range cum {
				check(c)
				if c > 0 { // u = Float64()·total is never negative
					check(math.Nextafter(c, math.Inf(-1)))
				}
				boundaries++
			}
			for _, u := range []float64{total, math.Nextafter(total, math.Inf(1)), 2 * total} {
				check(u)
				if got := searchDest(cum, u, last); got != last {
					t.Fatalf("N=%d row %d u=%v ≥ total %v: search picks %d, want last positive %d", m.N, src, u, total, got, last)
				}
				fallbacks++
			}
		}
	}
	if draws < 1e5 {
		t.Fatalf("only %d random draws", draws)
	}
	t.Logf("%d random draws, %d boundaries, %d fallbacks", draws, boundaries, fallbacks)
}

// FuzzPoissonWindow checks Window against referenceWindow on fuzzed
// locality workloads (N ≤ 64, any x, load, window start and span, seed
// and size distribution), plus contiguous IDs and arrivals inside
// [from, to). Inputs whose expected flow count exceeds 2^17 are
// skipped to keep each run fast.
func FuzzPoissonWindow(f *testing.F) {
	f.Add(uint8(16), uint8(4), 0.56, 0.3, int64(0), int64(5000), uint64(1), uint8(0))
	f.Add(uint8(64), uint8(8), 1.0, 1.0, int64(123), int64(8), uint64(2), uint8(1))
	f.Add(uint8(8), uint8(8), 0.0, 1e-6, int64(1)<<30, int64(1)<<32, uint64(3), uint8(2))
	f.Add(uint8(2), uint8(1), 0.5, 0.9, int64(7), int64(1), uint64(4), uint8(3))
	f.Add(uint8(33), uint8(3), 0.25, 0.05, int64(99), int64(70000), uint64(5), uint8(4))
	f.Fuzz(func(t *testing.T, n, nc uint8, x, load float64, from, span int64, seed uint64, sizeKind uint8) {
		N := 2 + int(n)%63
		clq := 1 + int(nc)%N
		for N%clq != 0 {
			clq--
		}
		if math.IsNaN(x) || x < 0 || x > 1 || from < 0 || from > 1<<40 || span < 0 || span > 1<<36 {
			return
		}
		tm, err := Locality(mustCliques(t, N, clq), x)
		if err != nil {
			t.Fatal(err)
		}
		sizes := []SizeDist{FixedSize(1 + int(sizeKind)%16), WebSearch(), DataMining(), FacebookLike(), Bimodal{ShortCells: 2, BulkCells: 50, ShortShare: 0.5}}
		size := sizes[int(sizeKind)%len(sizes)]
		if math.IsNaN(load) || math.IsInf(load, 0) || load <= 0 {
			if _, err := NewPoissonFlows(tm, size, load, seed); err == nil {
				t.Fatalf("load %v accepted", load)
			}
			return
		}
		if expect := float64(N) * load / size.MeanCells() * float64(span); expect > 1<<17 {
			return
		}
		g, ref := twinGenerators(t, tm, size, load, seed)
		to := from + span
		got := g.Window(from, to)
		if want := referenceWindow(ref, from, to); !slices.Equal(got, want) {
			t.Fatalf("%d flows differ from the %d-flow reference", len(got), len(want))
		}
		seen := make([]bool, len(got)+1)
		for _, fl := range got {
			if fl.Arrival < from || fl.Arrival >= to {
				t.Fatalf("flow %d arrives at %d outside [%d,%d)", fl.ID, fl.Arrival, from, to)
			}
			if fl.ID < 1 || fl.ID > len(got) || seen[fl.ID] {
				t.Fatalf("flow IDs not contiguous from 1: got %d among %d flows", fl.ID, len(got))
			}
			seen[fl.ID] = true
		}
	})
}

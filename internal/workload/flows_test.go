package workload

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"
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

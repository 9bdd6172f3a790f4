package workload

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/rng"
)

// Flow is one transfer: Size cells from Src to Dst, arriving at the given
// absolute slot. One cell is one port-slot of transmission.
type Flow struct {
	ID      int
	Src     int
	Dst     int
	Size    int   // cells
	Arrival int64 // slot
}

// SizeDist samples flow sizes in cells.
type SizeDist interface {
	// Sample draws one flow size (>= 1 cell).
	Sample(r *rng.RNG) int
	// MeanCells is the distribution mean, used to convert offered load
	// into a flow arrival rate.
	MeanCells() float64
	// Name identifies the distribution in reports.
	Name() string
}

// FixedSize is a degenerate size distribution (every flow the same size).
type FixedSize int

// Sample implements SizeDist.
func (f FixedSize) Sample(r *rng.RNG) int { return int(f) }

// MeanCells implements SizeDist.
func (f FixedSize) MeanCells() float64 { return float64(f) }

// Name implements SizeDist.
func (f FixedSize) Name() string { return fmt.Sprintf("fixed-%d", int(f)) }

// cdfDist is an empirical flow-size distribution.
type cdfDist struct {
	name string
	cdf  *rng.EmpiricalCDF
}

// Sample implements SizeDist. Interpolated sizes are rounded up so the
// cumulative probability at each CDF knot is preserved exactly.
func (c *cdfDist) Sample(r *rng.RNG) int {
	v := int(math.Ceil(c.cdf.Sample(r)))
	if v < 1 {
		v = 1
	}
	return v
}

// MeanCells implements SizeDist.
func (c *cdfDist) MeanCells() float64 { return c.cdf.Mean() }

// Name implements SizeDist.
func (c *cdfDist) Name() string { return c.name }

// WebSearch returns the pFabric "web search" flow-size distribution [2]
// (the DCTCP search workload), in cells/packets — the standard heavy-
// tailed datacenter workload: median a handful of packets, tail in the
// tens of thousands.
func WebSearch() SizeDist {
	return &cdfDist{
		name: "pfabric-websearch",
		cdf: rng.NewEmpiricalCDF(
			[]float64{1, 6, 13, 19, 33, 53, 133, 667, 1333, 3333, 6667, 20000},
			[]float64{0, 0.15, 0.30, 0.45, 0.60, 0.70, 0.80, 0.90, 0.95, 0.98, 0.99, 1},
		),
	}
}

// DataMining returns the pFabric "data mining" flow-size distribution [2]
// (the VL2 workload): most flows are a few packets, but the tail carries
// most bytes.
func DataMining() SizeDist {
	return &cdfDist{
		name: "pfabric-datamining",
		cdf: rng.NewEmpiricalCDF(
			[]float64{1, 2, 3, 7, 267, 2107, 66667, 666667},
			[]float64{0.50, 0.60, 0.70, 0.80, 0.90, 0.95, 0.99, 1},
		),
	}
}

// Bimodal mixes a short-flow and a bulk-flow size, with the given share
// of flows short — modeling the paper's Table 1 assumption of a 75%
// short-flow traffic share from the production trace [23].
type Bimodal struct {
	ShortCells, BulkCells int
	ShortShare            float64
}

// Sample implements SizeDist.
func (b Bimodal) Sample(r *rng.RNG) int {
	if r.Float64() < b.ShortShare {
		return b.ShortCells
	}
	return b.BulkCells
}

// MeanCells implements SizeDist.
func (b Bimodal) MeanCells() float64 {
	return b.ShortShare*float64(b.ShortCells) + (1-b.ShortShare)*float64(b.BulkCells)
}

// Name implements SizeDist.
func (b Bimodal) Name() string { return "bimodal" }

// PoissonFlows generates an open-loop flow workload: per-source Poisson
// arrivals at the rate that offers `load` fraction of node bandwidth,
// destinations drawn from a traffic matrix, sizes from a SizeDist.
type PoissonFlows struct {
	TM   *Matrix
	Size SizeDist
	// Load is the offered load per node as a fraction of node bandwidth
	// (cells per slot), before any routing stretch.
	Load float64

	rng    *rng.RNG
	nextID int
	// Window's scratch, kept across calls: the cumulative rate row of
	// the source being generated (N floats) and the radix sort's bucket
	// cursors (256 plus 257 per 8-bit digit of the arrival span).
	cum    []float64
	cursor []int
}

// NewPoissonFlows builds the generator with its own RNG stream.
func NewPoissonFlows(tm *Matrix, size SizeDist, load float64, seed uint64) (*PoissonFlows, error) {
	// NaN fails every ordered comparison and +Inf makes every
	// inter-arrival gap zero (Window would never advance its clock), so
	// both are rejected explicitly.
	if math.IsNaN(load) || math.IsInf(load, 0) || load <= 0 {
		return nil, fmt.Errorf("workload: load must be finite and positive, got %f", load)
	}
	if err := tm.Validate(); err != nil {
		return nil, err
	}
	return &PoissonFlows{TM: tm, Size: size, Load: load, rng: rng.New(seed)}, nil
}

// maxPresize caps Window's up-front allocation (in flows) so an absurd
// window cannot request more memory than generation will ever fill.
const maxPresize = 1 << 24

// Window generates all flows arriving in slots [from, to), sorted by
// arrival slot then ID. Each source's arrival process is Poisson with
// rate load·rowSum(src)/meanSize flows per slot, and each flow draws its
// destination with Matrix.SampleDest's rule (by binary search in the
// source's cumulative row) and then its size. The output is allocated
// once, sized from the expected arrival count plus a few standard
// deviations, and ordered in place by orderFlows.
func (g *PoissonFlows) Window(from, to int64) []Flow {
	mean := g.Size.MeanCells()
	// The flow count is Poisson with mean Σ rate·(to−from): the mean plus
	// 6σ (and a constant for tiny windows) practically never regrows.
	expect := 0.0
	if to > from {
		for src := 0; src < g.TM.N; src++ {
			if rate := g.rate(src, mean); rate > 0 {
				expect += rate * float64(to-from)
			}
		}
	}
	out := make([]Flow, 0, int(math.Min(expect+6*math.Sqrt(expect)+16, maxPresize)))
	if len(g.cum) < g.TM.N {
		g.cum = make([]float64, g.TM.N)
	}
	cum := g.cum[:g.TM.N]
	first, last := int64(math.MaxInt64), int64(math.MinInt64)
	for src := 0; src < g.TM.N; src++ {
		rate := g.rate(src, mean)
		if rate <= 0 {
			continue
		}
		total, lastDst := cumRow(cum, g.TM.Rates[src])
		// Walk exponential inter-arrivals across the window.
		t := float64(from) + g.rng.Exp(rate)
		for t < float64(to) {
			g.nextID++
			f := Flow{
				ID:      g.nextID,
				Src:     src,
				Dst:     searchDest(cum, g.rng.Float64()*total, lastDst),
				Size:    g.Size.Sample(g.rng),
				Arrival: int64(t),
			}
			first, last = min(first, f.Arrival), max(last, f.Arrival)
			out = append(out, f)
			t += g.rng.Exp(rate)
		}
	}
	if len(out) > 1 {
		g.orderFlows(out, first, last)
	}
	return out
}

// rate is src's arrival rate in flows per slot.
func (g *PoissonFlows) rate(src int, mean float64) float64 {
	return g.Load * g.TM.RowSum(src) / mean
}

// cumRow fills cum with the running sums of row's positive rates, in
// scanDest's order, and returns the row total and the last positive
// entry. Rates are validated non-negative, so adding only the positive
// ones leaves every sum, the total included, equal to Matrix.RowSum's
// bit for bit.
func cumRow(cum, row []float64) (total float64, last int) {
	last = -1
	for d, r := range row {
		if r > 0 {
			total += r
			last = d
		}
		cum[d] = total
	}
	return total, last
}

// searchDest is scanDest by binary search for a draw u ≥ 0: the first d
// with cum[d] > u, which is always a positive entry since a zero rate
// repeats its predecessor's sum, or last when rounding put u at or past
// the total.
func searchDest(cum []float64, u float64, last int) int {
	lo, hi := 0, len(cum)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if cum[m] > u {
			hi = m
		} else {
			lo = m + 1
		}
	}
	if lo == len(cum) {
		return last
	}
	return lo
}

// insertionMax is the largest bucket orderFlows finishes by insertion
// sort before it has bucketed down to a single arrival slot.
const insertionMax = 24

// orderFlows sorts fs, whose arrivals all lie in [first, last], by
// (Arrival, ID) in place: a most-significant-digit radix sort on the
// arrival's offset from first, 8 bits per pass (American flag sort: each
// flow is swapped straight into its bucket), recursing into each bucket
// until it is small or holds one slot, then finishing it with
// sortBucket. The first pass over the whole window spreads flows into at
// most 256 contiguous slot ranges, so every later pass works on one
// range that is already in cache. The scratch is one cursor array per
// 8-bit digit of the span, at most 8 for any int64 span, so it depends
// on neither the span's size nor the flow count.
func (g *PoissonFlows) orderFlows(fs []Flow, first, last int64) {
	top := bits.Len64(uint64(last - first))
	digits := (top + 7) / 8
	if need := 256 + 257*digits; len(g.cursor) < need {
		g.cursor = make([]int, need)
	}
	radixPass(fs, first, top-8, g.cursor[:256], g.cursor[256:])
}

// radixPass orders fs by the 8-bit digit of its arrival offset at bit
// shift (clamped to 0; a digit overlapping already-bucketed bits only
// sees their one shared value), then each bucket by the digits below.
// shift ≤ −8 means every digit is consumed and fs shares one slot.
// heads is the 256-entry write cursor array, shared by every level;
// bounds holds this level's 257 bucket boundaries and the levels below.
func radixPass(fs []Flow, first int64, shift int, heads, bounds []int) {
	if len(fs) <= insertionMax || shift <= -8 {
		sortBucket(fs)
		return
	}
	s := max(shift, 0)
	digit := func(f *Flow) int { return int(uint64(f.Arrival-first) >> s & 0xff) }
	b := bounds[:257]
	clear(b)
	for i := range fs {
		b[digit(&fs[i])+1]++
	}
	for d := 1; d <= 256; d++ {
		b[d] += b[d-1]
	}
	copy(heads, b[:256])
	for d := 0; d < 256; d++ {
		for i, end := heads[d], b[d+1]; i < end; i = heads[d] {
			f := fs[i]
			for k := digit(&f); k != d; k = digit(&f) {
				j := heads[k]
				heads[k]++
				f, fs[j] = fs[j], f
			}
			fs[i] = f
			heads[d]++
		}
	}
	next := s - 8
	if s == 0 {
		next = -8
	}
	for d := 0; d < 256; d++ {
		if lo, hi := b[d], b[d+1]; hi-lo > 1 {
			radixPass(fs[lo:hi], first, next, heads, bounds[257:])
		}
	}
}

// sortBucket sorts one bucket by (Arrival, ID): insertion sort when it
// is small, else (only a single-slot bucket is large) a sort by ID.
func sortBucket(fs []Flow) {
	if len(fs) > insertionMax {
		slices.SortFunc(fs, func(a, b Flow) int { return cmp.Compare(a.ID, b.ID) })
		return
	}
	for i := 1; i < len(fs); i++ {
		f := fs[i]
		j := i
		for ; j > 0 && (fs[j-1].Arrival > f.Arrival || fs[j-1].Arrival == f.Arrival && fs[j-1].ID > f.ID); j-- {
			fs[j] = fs[j-1]
		}
		fs[j] = f
	}
}

// Capped truncates another size distribution at Max cells. Saturation-
// throughput experiments use it to bound the transient that whole-flow
// injection of heavy-tailed sizes would otherwise create (a 20000-cell
// flow enqueues at once); grouping of cells into flows does not change
// saturation throughput, only flow-level metrics. Build with NewCapped.
type Capped struct {
	Inner SizeDist
	Max   int
	mean  float64
}

// NewCapped wraps a size distribution with a cap, estimating the
// truncated mean from a fixed-seed sample so the load-to-arrival-rate
// conversion stays accurate.
func NewCapped(inner SizeDist, max int) *Capped {
	if max < 1 {
		panic(fmt.Sprintf("workload: cap %d < 1", max))
	}
	r := rng.New(0x5eed)
	const samples = 200000
	sum := 0.0
	for i := 0; i < samples; i++ {
		v := inner.Sample(r)
		if v > max {
			v = max
		}
		sum += float64(v)
	}
	return &Capped{Inner: inner, Max: max, mean: sum / samples}
}

// Sample implements SizeDist.
func (c *Capped) Sample(r *rng.RNG) int {
	v := c.Inner.Sample(r)
	if v > c.Max {
		return c.Max
	}
	return v
}

// MeanCells implements SizeDist.
func (c *Capped) MeanCells() float64 { return c.mean }

// Name implements SizeDist.
func (c *Capped) Name() string { return fmt.Sprintf("%s-cap%d", c.Inner.Name(), c.Max) }

// FacebookLike returns the flow-size mix Table 1 assumes from the
// production trace [23]: 75% of traffic volume in latency-sensitive
// short flows, the rest in bulk transfers. Sizes are in cells (one cell
// per port-slot).
func FacebookLike() SizeDist {
	return Bimodal{ShortCells: 16, BulkCells: 2000, ShortShare: 0.75}
}

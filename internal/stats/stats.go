// Package stats provides the small statistics toolkit the simulator and the
// experiment harness share: streaming summaries, percentile estimation over
// retained samples, log-scale histograms for latency distributions, and a
// fixed-width table renderer used by the cmd/ binaries to print the paper's
// tables and figure series.
//
// Sample, which holds every latency and FCT observation a simulation
// records, stores them in fixed-capacity blocks (8 values, doubling to
// 4096, then 4096 each), so a growing stream never copies what it has
// stored and allocates about its final size once. Percentile sorts a
// cached copy, so Values and Mean always see insertion order.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/sortedmap"
)

// Summary accumulates a stream of float64 observations and reports count,
// mean, variance (Welford), min, and max without retaining samples.
type Summary struct {
	n        int64
	mean, m2 float64
	min, max float64
}

// Add records one observation.
func (s *Summary) Add(v float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = v, v
	} else {
		if v < s.min {
			s.min = v
		}
		if v > s.max {
			s.max = v
		}
	}
	d := v - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (v - s.mean)
}

// Count returns the number of observations.
func (s *Summary) Count() int64 { return s.n }

// Mean returns the running mean, or NaN with no observations: an empty
// summary has no mean, and a silent 0 reads as a (wrong) measurement in
// downstream tables.
func (s *Summary) Mean() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.mean
}

// Variance returns the sample variance, or 0 for fewer than 2 observations.
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Stddev returns the sample standard deviation.
func (s *Summary) Stddev() float64 { return math.Sqrt(s.Variance()) }

// Min returns the smallest observation, or NaN with no observations.
func (s *Summary) Min() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.min
}

// Max returns the largest observation, or NaN with no observations.
func (s *Summary) Max() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.max
}

// Sample block sizes: the first block holds sampleFirstBlock values and
// each later one twice its predecessor, up to sampleBlock values (32 KiB,
// Go's largest small-object size class); every block after that holds
// sampleBlock.
const (
	sampleFirstBlock = 8
	sampleBlock      = 4096
)

// Sample retains every observation and answers percentile queries exactly.
// Suitable for the volumes this repository produces (≤ millions of points).
//
// Observations live in fixed-capacity blocks: growth allocates the next
// block and never copies a stored value, so a stream of n values
// allocates about n + sampleBlock slots where an append-grown slice
// allocates about five times n. A Sample copied by value keeps seeing exactly its
// own observations while the original keeps adding: Add writes only past
// the copy's count, and a block, once stored, is never moved or reused.
type Sample struct {
	blocks [][]float64 // every block, each full length; nil while cur is the only one
	cur    []float64   // the block Add fills; len = values stored in it
	bi     int         // index of cur in blocks
	n      int
	// sorted is a sorted copy of the n values, built by the first
	// Percentile after a change and never written again: a value copy
	// sharing it sees the same observations.
	sorted []float64
}

// Add records one observation.
func (s *Sample) Add(v float64) {
	if len(s.cur) == cap(s.cur) {
		s.grow()
	}
	s.cur = append(s.cur, v)
	s.n++
	s.sorted = nil
}

// grow makes cur a new empty block twice cur's size (up to
// sampleBlock). The first block goes without a blocks table until a
// second one exists, so a Sample of at most sampleFirstBlock values
// makes one allocation.
func (s *Sample) grow() {
	switch {
	case s.cur == nil:
		s.cur = make([]float64, 0, sampleFirstBlock)
		return
	case s.blocks == nil:
		s.blocks = make([][]float64, 1, 8)
		s.blocks[0] = s.cur[:cap(s.cur)]
	}
	s.blocks = append(s.blocks, make([]float64, min(2*cap(s.cur), sampleBlock)))
	s.bi++
	s.cur = s.blocks[s.bi][:0]
}

// chunk returns the values stored in block i, 0 ≤ i ≤ bi: every block
// before cur is full.
func (s *Sample) chunk(i int) []float64 {
	if i == s.bi {
		return s.cur
	}
	return s.blocks[i]
}

// Count returns the number of observations.
func (s *Sample) Count() int { return s.n }

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) by linear
// interpolation between closest ranks. It returns NaN with no
// observations — consistent with Mean, and distinguishable from a real
// zero-latency percentile. The first query after a change sorts one
// copy of the observations; later queries reuse it.
func (s *Sample) Percentile(p float64) float64 {
	if s.n == 0 {
		return math.NaN()
	}
	if s.sorted == nil {
		s.sorted = s.Values()
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

// Values returns a copy of the retained observations in insertion order.
// Intended for tests that compare sample streams exactly.
func (s *Sample) Values() []float64 {
	out := make([]float64, 0, s.n)
	for i := 0; i <= s.bi; i++ {
		out = append(out, s.chunk(i)...)
	}
	return out
}

// Mean returns the arithmetic mean of the sample, or NaN when empty. The
// sum runs in insertion order.
func (s *Sample) Mean() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	sum := 0.0
	for i := 0; i <= s.bi; i++ {
		for _, v := range s.chunk(i) {
			sum += v
		}
	}
	return sum / float64(s.n)
}

// Max returns the largest observation, or NaN with no observations.
func (s *Sample) Max() float64 { return s.Percentile(100) }

// LogHistogram buckets positive values into base-2 logarithmic bins, which
// is how latency distributions spanning ns..ms are reported.
type LogHistogram struct {
	counts map[int]int64
	total  int64
}

// NewLogHistogram returns an empty histogram.
func NewLogHistogram() *LogHistogram {
	return &LogHistogram{counts: make(map[int]int64)}
}

// Add records v. Non-positive values land in the lowest bucket.
func (h *LogHistogram) Add(v float64) {
	b := 0
	if v > 1 {
		b = int(math.Log2(v))
	}
	h.counts[b]++
	h.total++
}

// Total returns the number of recorded values.
func (h *LogHistogram) Total() int64 { return h.total }

// Buckets returns (lowerBound, count) pairs in increasing order.
func (h *LogHistogram) Buckets() (bounds []float64, counts []int64) {
	for _, k := range sortedmap.Keys(h.counts) {
		bounds = append(bounds, math.Pow(2, float64(k)))
		counts = append(counts, h.counts[k])
	}
	return bounds, counts
}

// Table renders rows of strings with aligned columns, in the style of the
// paper's Table 1. The zero value is ready to use.
type Table struct {
	header []string
	rows   [][]string
}

// SetHeader sets the column headers.
func (t *Table) SetHeader(cols ...string) { t.header = cols }

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) { t.rows = append(t.rows, cells) }

// AddRowf appends a row of formatted cells, each built with fmt.Sprintf
// from consecutive (format, value) handling left to the caller.
func (t *Table) AddRowf(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	ncols := len(t.header)
	for _, r := range t.rows {
		if len(r) > ncols {
			ncols = len(r)
		}
	}
	widths := make([]int, ncols)
	measure := func(r []string) {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.header)
	for _, r := range t.rows {
		measure(r)
	}
	var b strings.Builder
	writeRow := func(r []string) {
		for i := 0; i < ncols; i++ {
			cell := ""
			if i < len(r) {
				cell = r[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	if len(t.header) > 0 {
		writeRow(t.header)
		total := 0
		for _, w := range widths {
			total += w
		}
		b.WriteString(strings.Repeat("-", total+2*(ncols-1)))
		b.WriteString("\n")
	}
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (no quoting; callers only
// emit numeric and simple-identifier cells).
func (t *Table) CSV() string {
	var b strings.Builder
	if len(t.header) > 0 {
		b.WriteString(strings.Join(t.header, ","))
		b.WriteString("\n")
	}
	for _, r := range t.rows {
		b.WriteString(strings.Join(r, ","))
		b.WriteString("\n")
	}
	return b.String()
}

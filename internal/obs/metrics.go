package obs

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// metric is what every registry entry provides: a stable name and a
// current value for series snapshots.
type metric interface {
	Name() string
	Value() float64
}

// Counter is a monotonically increasing metric (cells delivered, flows
// completed). Methods on a nil Counter are no-ops, so a disabled layer
// needs no per-site guards beyond the registration branch.
type Counter struct {
	name string
	v    int64
}

// Name returns the registered name.
func (c *Counter) Name() string {
	if c == nil {
		return ""
	}
	return c.name
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v += d
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Total returns the accumulated count.
func (c *Counter) Total() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Value returns the count as a float64 (the metric interface).
func (c *Counter) Value() float64 { return float64(c.Total()) }

// Gauge is a point-in-time level (backlog, cells in flight).
type Gauge struct {
	name string
	v    float64
}

// Name returns the registered name.
func (g *Gauge) Name() string {
	if g == nil {
		return ""
	}
	return g.name
}

// Set records the current level.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v = v
}

// Value returns the last recorded level.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Rate is a windowed mean of per-slot observations — e.g. delivered
// cells per node per slot averaged over the last window slots, which is
// the slot-resolved throughput series the A5 ablation plots. Observe it
// once per slot; Value averages the occupied window (fewer entries while
// warming up, 0 before the first observation).
type Rate struct {
	name   string
	buf    []float64
	n, idx int
}

// Name returns the registered name.
func (r *Rate) Name() string {
	if r == nil {
		return ""
	}
	return r.name
}

// Observe records one per-slot observation.
func (r *Rate) Observe(v float64) {
	if r == nil {
		return
	}
	r.buf[r.idx] = v
	// Branch, not modulo: this runs every simulated slot and an integer
	// division would dominate the instrumented hot-path budget.
	if r.idx++; r.idx == len(r.buf) {
		r.idx = 0
	}
	if r.n < len(r.buf) {
		r.n++
	}
}

// ObserveZeros records k consecutive zero observations, bit-exactly as
// k calls to Observe(0) would (same buffer contents, occupancy, and
// cursor). The quiescence fast-forward covers skipped slots with it:
// once k reaches the window size the whole run of zeros is O(window),
// not O(k).
func (r *Rate) ObserveZeros(k int64) {
	if r == nil || k <= 0 || len(r.buf) == 0 {
		return
	}
	if k >= int64(len(r.buf)) {
		clear(r.buf)
		r.n = len(r.buf)
		r.idx = int((int64(r.idx) + k) % int64(len(r.buf)))
		return
	}
	for ; k > 0; k-- {
		r.Observe(0)
	}
}

// Value returns the mean over the occupied window.
func (r *Rate) Value() float64 {
	if r == nil || r.n == 0 {
		return 0
	}
	sum := 0.0
	for i := 0; i < r.n; i++ {
		sum += r.buf[i]
	}
	return sum / float64(r.n)
}

// reset empties the window (a new run starts; see Observer.StartRun).
func (r *Rate) reset() {
	r.n, r.idx = 0, 0
}

// Registry is an ordered, typed collection of metrics. Accessors are
// get-or-create and panic on a kind mismatch (a programming error, like
// a malformed format string). Iteration follows registration order, so
// emission is deterministic without sorting.
type Registry struct {
	order  []metric
	byName map[string]metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]metric{}}
}

// Counter returns the named counter, creating it if absent.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	if m, ok := r.byName[name]; ok {
		c, ok := m.(*Counter)
		if !ok {
			panic(fmt.Sprintf("obs: metric %q is not a counter", name))
		}
		return c
	}
	c := &Counter{name: name}
	r.register(c)
	return c
}

// Gauge returns the named gauge, creating it if absent.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	if m, ok := r.byName[name]; ok {
		g, ok := m.(*Gauge)
		if !ok {
			panic(fmt.Sprintf("obs: metric %q is not a gauge", name))
		}
		return g
	}
	g := &Gauge{name: name}
	r.register(g)
	return g
}

// Rate returns the named windowed rate, creating it with the given
// window if absent (the window of an existing rate is kept).
func (r *Registry) Rate(name string, window int) *Rate {
	if r == nil {
		return nil
	}
	if m, ok := r.byName[name]; ok {
		rt, ok := m.(*Rate)
		if !ok {
			panic(fmt.Sprintf("obs: metric %q is not a rate", name))
		}
		return rt
	}
	if window < 1 {
		window = 1
	}
	rt := &Rate{name: name, buf: make([]float64, window)}
	r.register(rt)
	return rt
}

// Names returns the metric names in registration order.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	out := make([]string, len(r.order))
	for i, m := range r.order {
		out[i] = m.Name()
	}
	return out
}

func (r *Registry) register(m metric) {
	r.order = append(r.order, m)
	r.byName[m.Name()] = m
}

// seriesRow is one time-series snapshot: every registered metric's value
// at a slot, under the current run label.
type seriesRow struct {
	label string
	slot  int64
	vals  []float64
}

// SeriesHeader returns the metrics CSV header: run, slot, then every
// metric name in registration order.
func (o *Observer) SeriesHeader() []string {
	if o == nil {
		return nil
	}
	return append([]string{"run", "slot"}, o.reg.Names()...)
}

// SeriesRows returns the retained time-series rows, oldest first, as
// strings aligned with SeriesHeader. Rows snapshotted before a metric
// was registered pad the missing columns with "".
func (o *Observer) SeriesRows() [][]string {
	if o == nil {
		return nil
	}
	width := len(o.reg.order)
	rows := o.rows.items()
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		row := make([]string, 2+width)
		row[0] = r.label
		row[1] = strconv.FormatInt(r.slot, 10)
		for i := 0; i < width; i++ {
			if i < len(r.vals) {
				row[2+i] = strconv.FormatFloat(r.vals[i], 'g', -1, 64)
			}
		}
		out = append(out, row)
	}
	return out
}

// WriteMetricsCSV emits the slot-resolved time series as CSV with a
// header row.
func (o *Observer) WriteMetricsCSV(w io.Writer) error {
	if o == nil {
		return nil
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(o.SeriesHeader()); err != nil {
		return err
	}
	for _, row := range o.SeriesRows() {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

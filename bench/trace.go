package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/stats"
)

// span is one timed interval at a layer boundary, recorded from the
// benchmark's own drivers around a call into a layer. Spans of one run
// (a set-up or a rep) share Run; Parent is the enclosing span's ID, or
// -1 for the run's root.
type span struct {
	Run    string  `json:"run"`
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  int64   `json:"start_ns"`
	End    int64   `json:"end_ns"`
	Self   int64   `json:"self_ns"`
	Ops    []opAgg `json:"ops,omitempty"`
}

// opAgg aggregates one kind of high-rate call inside a chunk span. Hist
// counts invocations by duration: Hist[i] holds [2^i, 2^(i+1)) ns, and
// Hist[0] also holds zero-length ones.
type opAgg struct {
	Name  string  `json:"name"`
	SumNS int64   `json:"sum_ns"`
	Count int64   `json:"count"`
	Hist  []int64 `json:"log2_hist"`
}

// op names a high-rate call. These run up to once per simulated slot, so
// they are aggregated per chunk instead of becoming spans.
type op int

const (
	opInject   op = iota // Sim.InjectFlow: inject + route, one relay draw per cell
	opStep               // Sim.Step: land, transmit, merge
	opFF                 // Sim.FastForwardTo
	opRunSat             // Sim.RunSaturated: inject and Step interleaved inside netsim
	opAdvance            // faultplan Driver.Advance that applied events (fail/repair purges)
	opDecide             // controlplane Observe + Resilient.Decide
	opReconfig           // Sim.Reconfigure
	numOps
)

var opNames = [numOps]string{
	"netsim.inject", "netsim.step", "netsim.ff", "netsim.run_saturated",
	"faultplan.advance", "controlplane.decide", "netsim.reconfig",
}

// chunkSlots is how many simulated slots one chunk span covers.
const chunkSlots = 256

const histBuckets = 48

// tracer records the spans of a traced benchmark run and the per-run
// sums the layer metrics are derived from. Sweep workers share it, so
// every method locks; the per-slot calls go through a chunk, which one
// goroutine owns, and reach the tracer once per chunk.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	run    string
	nextID int
	spans  []span
	cur    runData
}

// runData is everything one run recorded.
type runData struct {
	spans []span
	ns    map[string]int64     // summed duration by span or op name
	calls map[string]int64     // spans ended, or op calls made, by name
	vals  map[string]float64   // counts and estimates reported by the drivers
	samps map[string][]float64 // per-chunk samples (slot_ns, step_ns)
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), cur: newRunData()}
}

func newRunData() runData {
	return runData{
		ns:    map[string]int64{},
		calls: map[string]int64{},
		vals:  map[string]float64{},
		samps: map[string][]float64{},
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// startRun stamps subsequent spans with run id and clears the sums.
func (t *tracer) startRun(id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.run = id
	t.cur = newRunData()
}

// takeRun returns what the current run recorded. Its spans stay in the
// tracer for writeJSONL.
func (t *tracer) takeRun() runData {
	t.mu.Lock()
	defer t.mu.Unlock()
	rd := t.cur
	i := len(t.spans)
	for i > 0 && t.spans[i-1].Run == t.run {
		i--
	}
	rd.spans = append([]span(nil), t.spans[i:]...)
	t.cur = newRunData()
	return rd
}

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.nextID
	t.nextID++
	t.spans = append(t.spans, span{Run: t.run, ID: id, Parent: parent, Name: name, Start: now, End: now})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.find(id)
	s.End = now
	t.cur.ns[s.Name] += now - s.Start
	t.cur.calls[s.Name]++
}

// find returns span id. IDs are assigned in append order, so the slice
// is sorted by ID. Callers hold t.mu.
func (t *tracer) find(id int) *span {
	i := sort.Search(len(t.spans), func(i int) bool { return t.spans[i].ID >= id })
	return &t.spans[i]
}

// time runs fn inside a span.
func (t *tracer) time(name string, parent int, fn func() error) error {
	id := t.begin(name, parent)
	err := fn()
	t.end(id)
	return err
}

// add accumulates a driver-reported value.
func (t *tracer) add(name string, v float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cur.vals[name] += v
}

// addNS accumulates an estimated duration under a span or op name.
func (t *tracer) addNS(name string, ns float64, calls int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cur.ns[name] += int64(ns)
	t.cur.calls[name] += calls
}

// sample records one per-chunk observation.
func (t *tracer) sample(name string, v float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cur.samps[name] = append(t.cur.samps[name], v)
}

// chunk accumulates the high-rate calls of one stretch of chunkSlots
// simulated slots. Ops are chained: each charges the time since the
// previous one ended, so the driver's loop bookkeeping between two calls
// is charged to the second and a chunk's ops cover all of it.
type chunk struct {
	tr        *tracer
	parent    int
	start     int64
	last      int64
	startSlot int64
	sum       [numOps]int64
	count     [numOps]int64
	hist      [numOps][histBuckets]int64
	// totalSum and totalCount run over every chunk of the simulation.
	totalSum   [numOps]int64
	totalCount [numOps]int64
}

func (t *tracer) chunk(parent int, slot int64) *chunk {
	now := t.now()
	return &chunk{tr: t, parent: parent, start: now, last: now, startSlot: slot}
}

// op charges the time since the previous op to k, for calls calls.
func (c *chunk) op(k op, calls int64) {
	now := c.tr.now()
	d := now - c.last
	c.last = now
	c.sum[k] += d
	c.count[k] += calls
	c.totalSum[k] += d
	c.totalCount[k] += calls
	b := min(bits.Len64(uint64(d)), histBuckets) - 1
	c.hist[k][max(b, 0)]++
}

// next closes the chunk once the simulation reached slot and the chunk
// covers at least chunkSlots slots.
func (c *chunk) next(slot int64) {
	if slot-c.startSlot >= chunkSlots {
		c.flush(slot)
	}
}

// flush records the chunk as a span ending at slot and starts the next
// one where it ended.
func (c *chunk) flush(slot int64) {
	slots := slot - c.startSlot
	if slots <= 0 {
		return
	}
	s := span{Parent: c.parent, Name: "netsim.chunk", Start: c.start, End: c.last}
	for k := op(0); k < numOps; k++ {
		if c.count[k] == 0 && c.sum[k] == 0 {
			continue
		}
		h := c.hist[k][:]
		for len(h) > 0 && h[len(h)-1] == 0 {
			h = h[:len(h)-1]
		}
		s.Ops = append(s.Ops, opAgg{Name: opNames[k], SumNS: c.sum[k], Count: c.count[k], Hist: append([]int64(nil), h...)})
	}
	t := c.tr
	t.mu.Lock()
	s.Run, s.ID = t.run, t.nextID
	t.nextID++
	t.spans = append(t.spans, s)
	t.cur.ns[s.Name] += s.End - s.Start
	t.cur.calls[s.Name]++
	for _, a := range s.Ops {
		t.cur.ns[a.Name] += a.SumNS
		t.cur.calls[a.Name] += a.Count
	}
	t.cur.samps["netsim.slot_ns"] = append(t.cur.samps["netsim.slot_ns"], float64(s.End-s.Start)/float64(slots))
	if n := c.count[opStep]; n > 0 {
		t.cur.samps["netsim.step_ns"] = append(t.cur.samps["netsim.step_ns"], float64(c.sum[opStep])/float64(n))
	}
	t.mu.Unlock()
	c.start, c.startSlot = c.last, slot
	c.sum, c.count = [numOps]int64{}, [numOps]int64{}
	c.hist = [numOps][histBuckets]int64{}
}

// selfTimes returns each span's self time: its duration minus the part
// its children cover, and minus its ops. Children are merged as a union
// of intervals, because sweep points running on different workers
// overlap in time under their common parent.
func selfTimes(spans []span) []int64 {
	idx := make(map[int]int, len(spans))
	for i, s := range spans {
		idx[s.ID] = i
	}
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if p, ok := idx[s.Parent]; ok {
			kids[p] = append(kids[p], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ivs := make([][2]int64, 0, len(kids[i]))
		for _, k := range kids[i] {
			ivs = append(ivs, [2]int64{spans[k].Start, spans[k].End})
		}
		self[i] = s.End - s.Start - covered(ivs, s.Start, s.End)
		for _, a := range s.Ops {
			self[i] -= a.SumNS
		}
	}
	return self
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	curS, curE := lo, lo
	for _, iv := range ivs {
		s, e := max(iv[0], lo), min(iv[1], hi)
		if e <= s {
			continue
		}
		if s > curE {
			total += curE - curS
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	return total + curE - curS
}

// layerMetrics derives one traced rep's per-layer metrics.
func layerMetrics(rd runData) map[string]float64 {
	ms := func(name string) float64 { return float64(rd.ns[name]) / 1e6 }
	ratio := func(a, b float64) float64 {
		if b <= 0 {
			return 0
		}
		return a / b
	}
	pct := func(name string, p float64) float64 {
		var s stats.Sample
		for _, v := range rd.samps[name] {
			s.Add(v)
		}
		if s.Count() == 0 {
			return 0
		}
		return s.Percentile(p)
	}
	v := rd.vals
	step := ms("netsim.step")
	m := map[string]float64{
		"core.acquire_ms":           ms("core.acquire"),
		"fluid.solve_ms":            ms("fluid.solve"),
		"fluid.solves":              float64(rd.calls["fluid.solve"]),
		"workload.tm_ms":            ms("workload.tm"),
		"workload.gen_ms":           ms("workload.gen"),
		"workload.flows":            v["workload.flows"],
		"netsim.inject_ms":          ms("netsim.inject"),
		"netsim.inject_cells":       v["netsim.inject_cells"],
		"netsim.inject_ns_per_cell": ratio(v["inject.meas_ns"], v["inject.meas_cells"]),
		"netsim.step_ms":            step,
		"netsim.steps":              float64(rd.calls["netsim.step"]),
		"netsim.step_ns_p50":        pct("netsim.step_ns", 50),
		"netsim.step_ns_p99":        pct("netsim.step_ns", 99),
		"netsim.slot_ns_p50":        pct("netsim.slot_ns", 50),
		"netsim.slot_ns_p99":        pct("netsim.slot_ns", 99),
		"netsim.ns_per_hop":         ratio(v["hop.step_ns"], v["hop.sent"]),
		"netsim.idle_frac":          ratio(v["idle.slots"], v["idle.capacity"]),
		"netsim.transmit_ms":        ms("netsim.transmit"),
		"netsim.land_ms":            ms("netsim.land"),
		"netsim.step_other_ms":      step - ms("netsim.transmit") - ms("netsim.land"),
		"netsim.ff_calls":           v["netsim.ff_effective"],
		"netsim.ff_slot_frac":       ratio(v["netsim.ff_skipped"], v["netsim.slots"]),
		"netsim.ff_ms":              ms("netsim.ff"),
		"netsim.reconfigs":          float64(rd.calls["netsim.reconfig"]),
		"netsim.reconfig_ms":        ms("netsim.reconfig"),
		"controlplane.decides":      float64(rd.calls["controlplane.decide"]),
		"controlplane.replans":      v["controlplane.replans"],
		"controlplane.decide_ms":    ms("controlplane.decide"),
		"faultplan.advance_ms":      ms("faultplan.advance"),
		"obs.series_rows":           v["obs.series_rows"],
		"trace.unattributed_frac":   unattributed(rd.spans),
		"sweep.point_s_max":         0,
	}
	for _, s := range rd.spans {
		if s.Name == "sweep.point" {
			m["sweep.point_s_max"] = max(m["sweep.point_s_max"], float64(s.End-s.Start)/1e9)
		}
	}
	return m
}

// structural spans only group layer spans; their self time is the part
// of a rep no layer span accounts for.
func structural(name string) bool { return name == "rep" || name == "sweep.point" }

// unattributed returns the share of a rep's busy worker time that no
// layer span covers: the self time of the rep and its sweep points over
// the rep's own self time plus the points' durations.
func unattributed(spans []span) float64 {
	self := selfTimes(spans)
	var lost, busy int64
	for i, s := range spans {
		if !structural(s.Name) {
			continue
		}
		lost += self[i]
		if s.Name == "rep" {
			busy += self[i]
		} else {
			busy += s.End - s.Start
		}
	}
	if busy <= 0 {
		return 0
	}
	return float64(lost) / float64(busy)
}

// appendJSONL appends every recorded span, with its self time, to path,
// one JSON object per line.
func (t *tracer) appendJSONL(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for lo := 0; lo < len(t.spans); {
		hi := lo
		for hi < len(t.spans) && t.spans[hi].Run == t.spans[lo].Run {
			hi++
		}
		run := t.spans[lo:hi]
		for i, s := range selfTimes(run) {
			run[i].Self = s
		}
		for _, s := range run {
			if err := enc.Encode(s); err != nil {
				return fmt.Errorf("write spans: %w", err)
			}
		}
		lo = hi
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// phaseSample is a snapshot of a phase observer's shard-0 timers.
// netsim times one slot in 16; sampled counts those slots.
type phaseSample struct {
	ns      [4]int64 // indexed by obs.Phase: inject, land, transmit, merge
	sampled int64
}

// phaseObserver returns an observer that, in effect, only times phases:
// one series row per 2^30 slots.
func phaseObserver() *obs.Observer {
	return obs.New(obs.Options{MetricsEvery: 1 << 30})
}

func samplePhases(ob *obs.Observer) phaseSample {
	var s phaseSample
	for _, p := range ob.PhaseStats() {
		i := phaseIndex(p.Phase)
		if i < 0 || len(p.ShardNS) == 0 {
			continue
		}
		s.ns[i] = p.ShardNS[0]
		if obs.Phase(i) == obs.PhaseLand {
			// Every shard lands on every stepped slot.
			s.sampled = p.Calls / int64(len(p.ShardNS))
		}
	}
	return s
}

func phaseIndex(name string) int {
	for p := obs.PhaseInject; p <= obs.PhaseMerge; p++ {
		if p.String() == name {
			return int(p)
		}
	}
	return -1
}

// since returns s − prev.
func (s phaseSample) since(prev phaseSample) phaseSample {
	for i := range s.ns {
		s.ns[i] -= prev.ns[i]
	}
	s.sampled -= prev.sampled
	return s
}

// estimate scales the sampled time of phase p up to slots stepped slots.
// The calling goroutine runs shard 0, so for a sharded Step the wait for
// the other shards is not in these times: it stays in Step's remainder,
// with the goroutine fan-out and the per-slot observer hook.
func (s phaseSample) estimate(p obs.Phase, slots int64) float64 {
	if s.sampled <= 0 {
		return 0
	}
	return float64(s.ns[p]) * float64(slots) / float64(s.sampled)
}

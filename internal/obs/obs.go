// Package obs is the simulator's observability layer: a typed metrics
// registry sampled into a slot-resolved time series, per-phase
// wall-clock timing, and a bounded ring-buffer event trace with JSONL
// and CSV emitters. It is stdlib-only, like the rest of the repository.
//
// Everything here sits strictly *outside* the deterministic simulation
// state: an Observer reads simulator counters and the wall clock but
// never feeds anything back, so a run with observability enabled
// produces bit-identical Stats to an uninstrumented run (enforced by
// TestObsNonPerturbation in internal/netsim). All methods are nil-safe —
// a nil *Observer is the disabled layer, and instrumentation sites pay
// one predictable branch.
//
// An Observer serves one simulation at a time (sequential reuse across
// runs is fine; see StartRun). The netsim engine runs each slot's
// phases in a fixed order and emits each event where it happens, so the
// event stream and metric series are identical across runs. Only
// the wall-clock phase timings differ between runs, by construction.
package obs

import (
	"fmt"
	"io"
	"time"
)

// Phase identifies one stage of a simulation slot for wall-clock timing.
type Phase int

const (
	// PhaseInject is workload injection (top-ups, open-loop arrivals).
	PhaseInject Phase = iota
	// PhaseLand is the landing phase (arrivals leaving the delay line).
	PhaseLand
	// PhaseTransmit is the transmit phase (VOQ pops onto circuits).
	PhaseTransmit
	// PhaseMerge is never timed: the simulator writes each effect of a
	// slot where it happens, so no phase follows transmit.
	//
	// Deprecated: kept only for the benchmark module's phase-name loop
	// (bench/trace.go), which runs up to it.
	PhaseMerge
	numPhases
)

// String names the phase for reports and CSV headers.
func (p Phase) String() string {
	switch p {
	case PhaseInject:
		return "inject"
	case PhaseLand:
		return "land"
	case PhaseTransmit:
		return "transmit"
	case PhaseMerge:
		return "merge"
	}
	return fmt.Sprintf("phase(%d)", int(p))
}

// Options configure an Observer. The zero value picks usable defaults.
type Options struct {
	// MetricsEvery is the series snapshot cadence in slots (default 64):
	// every MetricsEvery-th slot the value of every registered metric is
	// recorded as one time-series row.
	MetricsEvery int64
	// TraceCap bounds each event-trace tier (default 65536): flow
	// lifecycle events and rare control events (failures, reconfigs,
	// replans, run/phase marks) are ringed separately so flow chatter
	// cannot evict control events. Once a tier fills, its oldest events
	// are overwritten and counted in TraceDropped.
	TraceCap int
	// SeriesCap bounds retained time-series rows (default 1<<20); the
	// oldest rows are overwritten once exceeded.
	SeriesCap int
	// TraceFlows enables per-flow lifecycle events (flow_start,
	// flow_finish). Off by default: at saturation a simulator emits
	// tens of these per slot, and the Event copies cost more than the
	// whole always-on metrics layer — rare events (failures,
	// reconfigurations, replans, run/phase marks) are always traced.
	TraceFlows bool
}

func (o Options) withDefaults() Options {
	if o.MetricsEvery <= 0 {
		o.MetricsEvery = 64
	}
	if o.TraceCap <= 0 {
		o.TraceCap = 1 << 16
	}
	if o.SeriesCap <= 0 {
		o.SeriesCap = 1 << 20
	}
	return o
}

// Observer is the root handle instrumented code writes to. A nil
// Observer is valid and inert.
type Observer struct {
	opts  Options
	reg   *Registry
	trace *Trace
	label string
	rows  ring[seriesRow]

	// everyMask is MetricsEvery−1 when MetricsEvery is a power of two,
	// else 0: SnapshotDue runs once per simulated slot, and a mask test
	// is markedly cheaper than an int64 division on that path.
	everyMask int64

	// Per-phase wall-clock accumulators.
	phaseNS    [numPhases]int64
	phaseCalls [numPhases]int64
}

// New builds an enabled Observer.
func New(opts Options) *Observer {
	opts = opts.withDefaults()
	o := &Observer{
		opts:  opts,
		reg:   NewRegistry(),
		trace: newTrace(opts.TraceCap),
		rows:  newRing[seriesRow](opts.SeriesCap),
	}
	if e := opts.MetricsEvery; e&(e-1) == 0 {
		o.everyMask = e - 1
	}
	return o
}

// TraceFlows reports whether per-flow lifecycle events should be
// emitted. False on a nil Observer.
func (o *Observer) TraceFlows() bool {
	return o != nil && o.opts.TraceFlows
}

// Enabled reports whether the observer records anything.
func (o *Observer) Enabled() bool { return o != nil }

// Registry exposes the metric registry (nil on a nil Observer).
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Counter returns (creating if needed) the named counter.
func (o *Observer) Counter(name string) *Counter {
	if o == nil {
		return nil
	}
	return o.reg.Counter(name)
}

// Gauge returns (creating if needed) the named gauge.
func (o *Observer) Gauge(name string) *Gauge {
	if o == nil {
		return nil
	}
	return o.reg.Gauge(name)
}

// rateWindow is the window, in slots, of every windowed rate an
// Observer registers.
const rateWindow = 256

// Rate returns (creating if needed) the named windowed rate over the
// last rateWindow observations.
func (o *Observer) Rate(name string) *Rate {
	if o == nil {
		return nil
	}
	return o.reg.Rate(name, rateWindow)
}

// Emit appends an event to the bounded trace.
func (o *Observer) Emit(e Event) {
	if o == nil {
		return
	}
	o.trace.add(e)
}

// Events returns the retained trace, oldest first.
func (o *Observer) Events() []Event {
	if o == nil {
		return nil
	}
	return o.trace.Events()
}

// TraceDropped returns how many events the ring overwrote.
func (o *Observer) TraceDropped() int64 {
	if o == nil {
		return 0
	}
	return o.trace.Dropped()
}

// StartRun labels subsequent time-series rows and resets windowed rates,
// so one Observer can carry several sequential simulations (a load
// sweep, the adaptation phases) with distinguishable rows. It emits an
// EvRunBegin event carrying the label.
func (o *Observer) StartRun(label string) {
	if o == nil {
		return
	}
	o.label = label
	for _, m := range o.reg.order {
		if r, ok := m.(*Rate); ok {
			r.reset()
		}
	}
	o.Emit(Event{Type: EvRunBegin, Src: -1, Dst: -1, Note: label})
}

// SnapshotDue reports whether EndSlot(slot) would snapshot a series
// row, so callers can defer point-in-time gauge computation (a backlog
// sweep, an in-flight sum) to exactly the slots where the value is
// read. False on a nil Observer.
func (o *Observer) SnapshotDue(slot int64) bool {
	if o == nil {
		return false
	}
	if o.everyMask != 0 {
		return slot&o.everyMask == 0
	}
	return slot%o.opts.MetricsEvery == 0
}

// NextSnapshot returns the first slot at or after `from` at which
// EndSlot would snapshot a series row — the slots a quiescence
// fast-forward must account for rather than skip. ok is false on a nil
// Observer.
func (o *Observer) NextSnapshot(from int64) (slot int64, ok bool) {
	if o == nil {
		return 0, false
	}
	e := o.opts.MetricsEvery
	if rem := from % e; rem != 0 {
		return from + e - rem, true
	}
	return from, true
}

// EndSlot is the per-slot hook: on every MetricsEvery-th slot it
// snapshots all registered metrics into one time-series row.
func (o *Observer) EndSlot(slot int64) {
	if o == nil {
		return
	}
	if slot%o.opts.MetricsEvery != 0 {
		return
	}
	vals := make([]float64, len(o.reg.order))
	for i, m := range o.reg.order {
		vals[i] = m.Value()
	}
	o.rows.add(seriesRow{label: o.label, slot: slot, vals: vals})
}

// Clock returns the wall clock in nanoseconds, or 0 on a nil Observer.
// Pair it with AddPhase around a phase body.
func (o *Observer) Clock() int64 {
	if o == nil {
		return 0
	}
	return nowNS()
}

// nowNS is the single place the observability layer reads real time;
// readings flow into phase-timing reports and never into simulation
// state, which is what keeps instrumented runs bit-identical.
func nowNS() int64 {
	//sornlint:ignore noderterm -- wall-clock phase timing is the point of obs; readings never reach simulation state
	return time.Now().UnixNano()
}

// AddPhase accumulates now−startNS into phase p.
func (o *Observer) AddPhase(p Phase, startNS int64) {
	if o == nil {
		return
	}
	o.phaseNS[p] += nowNS() - startNS
	o.phaseCalls[p]++
}

// PhaseStat is the accumulated wall-clock time of one slot phase.
type PhaseStat struct {
	Phase string
	// Deprecated: ShardNS holds one entry, TotalNS, from the time the
	// simulator could split a phase across goroutines. It stays until
	// the benchmark module stops reading it (ROADMAP items 3 and 5).
	ShardNS []int64
	TotalNS int64
	Calls   int64
}

// PhaseStats reports accumulated per-phase wall-clock time, skipping
// phases that never ran.
func (o *Observer) PhaseStats() []PhaseStat {
	if o == nil {
		return nil
	}
	var out []PhaseStat
	for p := Phase(0); p < numPhases; p++ {
		if o.phaseCalls[p] > 0 {
			out = append(out, PhaseStat{Phase: p.String(), ShardNS: []int64{o.phaseNS[p]},
				TotalNS: o.phaseNS[p], Calls: o.phaseCalls[p]})
		}
	}
	return out
}

// WritePhaseReport renders PhaseStats as "phase total_ms calls" lines.
func (o *Observer) WritePhaseReport(w io.Writer) error {
	for _, st := range o.PhaseStats() {
		if _, err := fmt.Fprintf(w, "phase %-9s %10.3f ms  %8d calls\n",
			st.Phase, float64(st.TotalNS)/1e6, st.Calls); err != nil {
			return err
		}
	}
	return nil
}

// ring is a bounded FIFO that overwrites its oldest element when full.
// Storage grows on demand (append) up to the bound rather than being
// preallocated: default caps are generous (1<<20 series rows, 1<<16
// events) and eagerly zeroing tens of megabytes per Observer — then
// having the GC scan the mostly-empty, pointer-bearing buffers on every
// cycle — dominated the instrumented hot-path cost.
type ring[T any] struct {
	buf     []T
	bound   int
	next    int // overwrite cursor, meaningful once len(buf) == bound
	dropped int64
}

func newRing[T any](capacity int) ring[T] {
	return ring[T]{bound: capacity}
}

func (r *ring[T]) add(v T) {
	if r.bound == 0 {
		r.dropped++
		return
	}
	if len(r.buf) < r.bound {
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.next] = v
	if r.next++; r.next == r.bound {
		r.next = 0
	}
	r.dropped++
}

// items returns the retained elements, oldest first.
func (r *ring[T]) items() []T {
	out := make([]T, 0, len(r.buf))
	start := 0
	if len(r.buf) == r.bound {
		start = r.next
	}
	for i := 0; i < len(r.buf); i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

package netsim

import "repro/internal/obs"

// simMetrics caches the metric handles the per-slot observability hook
// updates, plus the previous cumulative Stats snapshot it diffs against
// to derive per-slot deltas. It exists only when Config.Obs is set; the
// uninstrumented hot path pays a single nil check per Step.
type simMetrics struct {
	delivered *obs.Counter
	injected  *obs.Counter
	sent      *obs.Counter
	lost      *obs.Counter
	dropped   *obs.Counter
	completed *obs.Counter
	backlog   *obs.Gauge
	inflight  *obs.Gauge
	thpt      *obs.Rate

	// invNP caches 1/(n·planes) so the per-slot throughput observation
	// is one multiply instead of two divides.
	invNP float64

	prevDelivered int64
	prevInjected  int64
	prevSent      int64
	prevLost      int64
	prevDropped   int64
	prevCompleted int64
}

// newSimMetrics registers the per-slot metric handles; New only calls
// it with a non-nil observer.
//
//sornlint:obsguarded
func newSimMetrics(o *obs.Observer) *simMetrics {
	return &simMetrics{
		delivered: o.Counter("delivered_cells"),
		injected:  o.Counter("injected_cells"),
		sent:      o.Counter("sent_cells"),
		lost:      o.Counter("lost_cells"),
		dropped:   o.Counter("dropped_cells"),
		completed: o.Counter("completed_flows"),
		backlog:   o.Gauge("backlog_cells"),
		inflight:  o.Gauge("inflight_cells"),
		thpt:      o.Rate("throughput"),
	}
}

// statDelta returns cur−*prev and updates *prev. Experiments reset the
// shared Stats between measurement phases (e.g. Adaptation zeroes the
// struct), which would make a naive delta negative; the clamp treats the
// post-reset cumulative value as the whole delta instead.
func statDelta(cur int64, prev *int64) int64 {
	d := cur - *prev
	if d < 0 {
		d = cur
	}
	*prev = cur
	return d
}

// obsEndSlot is the per-slot observability hook, run at the end of Step
// after the transmit phase: it folds the slot's Stats deltas into the
// registry counters and observes the slot's per-node-per-plane
// throughput into the windowed rate. The point-in-time gauges (backlog
// sweep, in-flight sum) cost a loop each, so they are computed only on
// the slots where the observer snapshots a series row — the only place
// a gauge value is read. Strictly read-only with respect to simulation
// state. Step only calls it when s.om exists, which implies s.obs does.
//
//sornlint:obsguarded
func (s *Sim) obsEndSlot() {
	m := s.om
	dDelivered := s.flushStatDeltas()
	m.thpt.Observe(float64(dDelivered) * m.invNP)
	if s.obs.SnapshotDue(s.slot) {
		m.backlog.Set(float64(s.Backlog()))
		m.inflight.Set(float64(s.InFlight()))
		s.obs.EndSlot(s.slot)
	}
}

// flushStatDeltas folds the Stats movement since the previous flush into
// the registry counters and returns the delivered-cells delta (the
// throughput observation's input).
//
//sornlint:obsguarded
func (s *Sim) flushStatDeltas() int64 {
	m := s.om
	dDelivered := statDelta(s.stats.DeliveredCells, &m.prevDelivered)
	m.delivered.Add(dDelivered)
	m.injected.Add(statDelta(s.stats.InjectedCells, &m.prevInjected))
	m.sent.Add(statDelta(s.stats.SentCells, &m.prevSent))
	m.lost.Add(statDelta(s.stats.LostCells, &m.prevLost))
	m.dropped.Add(statDelta(s.stats.DroppedCells, &m.prevDropped))
	m.completed.Add(statDelta(s.stats.CompletedFlows, &m.prevCompleted))
	return dDelivered
}

// obsFastForward replays the per-slot observability hook for the
// quiescent slots [s.slot, target) in bulk, producing the exact metric
// state per-slot Steps would have: any Stats movement since the last
// Step (a failed-source injection counts Injected and Lost without
// queueing anything) is flushed first — its delivered delta is
// necessarily zero while nothing is queued or in flight — then every
// skipped slot contributes a zero throughput observation, and every
// snapshot-due slot in the range records a series row with zero
// backlog/in-flight gauges (true by the quiescence precondition).
//
//sornlint:obsguarded
func (s *Sim) obsFastForward(target int64) {
	m := s.om
	s.flushStatDeltas()
	t := s.slot
	for {
		due, ok := s.obs.NextSnapshot(t)
		if !ok || due >= target {
			break
		}
		m.thpt.ObserveZeros(due - t + 1)
		m.backlog.Set(0)
		m.inflight.Set(0)
		s.obs.EndSlot(due)
		t = due + 1
	}
	m.thpt.ObserveZeros(target - t)
}

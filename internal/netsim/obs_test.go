package netsim

import (
	"testing"

	"repro/internal/obs"
)

// newTestObserver uses a short snapshot cadence so even the small test
// runs produce several series rows, and turns on flow tracing so the
// event-stream determinism checks cover the high-rate events too.
func newTestObserver() *obs.Observer {
	return obs.New(obs.Options{MetricsEvery: 16, TraceCap: 1 << 14, TraceFlows: true})
}

// eventsEqual asserts two event streams are identical element-wise.
func eventsEqual(t *testing.T, a, b []obs.Event) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("event streams differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event[%d] differs:\n  want %+v\n  got  %+v", i, a[i], b[i])
		}
	}
}

// seriesEqual asserts two metric series are identical row-by-row.
func seriesEqual(t *testing.T, a, b [][]string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("series differ in length: %d vs %d rows", len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("series row %d differs in width: %d vs %d", i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("series[%d][%d]: %q vs %q", i, j, a[i][j], b[i][j])
			}
		}
	}
}

// TestObsNonPerturbation is the observability layer's core guarantee:
// attaching an Observer changes NOTHING about the simulation. For each
// shared scenario (saturation per node and per pair, open-loop with
// mid-run link and node failures, mid-run reconfiguration) it runs
// obs-off and obs-on on both engines and requires bit-identical Stats,
// and additionally requires that the obs-on event trace and metric
// series themselves are identical across the engines.
func TestObsNonPerturbation(t *testing.T) {
	type capture struct {
		sim    *Sim
		events []obs.Event
		series [][]string
	}
	for _, sc := range scenarios() {
		t.Run(sc.name, func(t *testing.T) {
			caps := make(map[bool]map[bool]capture)
			for _, dense := range []bool{false, true} {
				caps[dense] = make(map[bool]capture)
				for _, withObs := range []bool{false, true} {
					var ob *obs.Observer
					if withObs {
						ob = newTestObserver()
					}
					sim := sc.run(t, dense, ob)
					c := capture{sim: sim}
					if withObs {
						c.events = ob.Events()
						c.series = ob.SeriesRows()
					}
					caps[dense][withObs] = c
				}
				off, on := caps[dense][false], caps[dense][true]
				statsEqual(t, &off.sim.stats, &on.sim.stats)
				if off.sim.Backlog() != on.sim.Backlog() || off.sim.InFlight() != on.sim.InFlight() {
					t.Fatalf("dense=%v: observer perturbed queues: backlog/inflight %d/%d vs %d/%d",
						dense, off.sim.Backlog(), off.sim.InFlight(), on.sim.Backlog(), on.sim.InFlight())
				}
				if off.sim.FlowsCompleted() != on.sim.FlowsCompleted() {
					t.Fatalf("dense=%v: observer perturbed completions: %d vs %d",
						dense, off.sim.FlowsCompleted(), on.sim.FlowsCompleted())
				}
			}
			statsEqual(t, &caps[true][true].sim.stats, &caps[false][true].sim.stats)
			eventsEqual(t, caps[true][true].events, caps[false][true].events)
			seriesEqual(t, caps[true][true].series, caps[false][true].series)
		})
	}
}

// TestObsFailureSignals checks the observer actually captures what the
// failure scenario does: the lost_cells counter mirrors Stats.LostCells
// exactly, and the trace carries the failure and flow lifecycle events.
func TestObsFailureSignals(t *testing.T) {
	ob := newTestObserver()
	sim := scenarioNamed(t, "openloop-failures").run(t, false, ob)
	st := sim.Stats()
	if st.LostCells == 0 {
		t.Fatal("scenario produced no losses")
	}
	if got := ob.Counter("lost_cells").Total(); got != st.LostCells {
		t.Fatalf("lost_cells counter %d != Stats.LostCells %d", got, st.LostCells)
	}
	if got := ob.Counter("delivered_cells").Total(); got != st.DeliveredCells {
		t.Fatalf("delivered_cells counter %d != Stats.DeliveredCells %d", got, st.DeliveredCells)
	}
	want := map[string]bool{
		obs.EvFlowStart:  false,
		obs.EvFlowFinish: false,
		obs.EvFailLink:   false,
		obs.EvFailNode:   false,
	}
	finishes := 0
	for _, e := range ob.Events() {
		if _, ok := want[e.Type]; ok {
			want[e.Type] = true
		}
		if e.Type == obs.EvFlowFinish {
			finishes++
		}
	}
	for typ, seen := range want {
		if !seen {
			t.Fatalf("trace missing %s event", typ)
		}
	}
	if finishes != sim.FlowsCompleted() {
		t.Fatalf("trace has %d flow_finish events, sim completed %d flows", finishes, sim.FlowsCompleted())
	}
	if len(ob.SeriesRows()) == 0 {
		t.Fatal("no metric series rows captured")
	}
}

// TestObsReconfigureSignals checks reconfiguration events reach the
// trace with their re-route cell counts.
func TestObsReconfigureSignals(t *testing.T) {
	ob := newTestObserver()
	scenarioNamed(t, "reconfigure").run(t, false, ob)
	var begin, commit bool
	for _, e := range ob.Events() {
		switch e.Type {
		case obs.EvReconfigBegin:
			begin = true
		case obs.EvReconfigCommit:
			commit = true
			if e.Cells < 0 {
				t.Fatalf("reconfig_commit carries negative re-routed cell count %d", e.Cells)
			}
		}
	}
	if !begin || !commit {
		t.Fatalf("trace missing reconfig events: begin=%v commit=%v", begin, commit)
	}
}

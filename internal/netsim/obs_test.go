package netsim

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/routing"
	"repro/internal/schedule"
	"repro/internal/workload"
)

// newTestObserver uses a short snapshot cadence so even the small test
// runs produce several series rows, and turns on flow tracing so the
// event-stream determinism checks cover the high-rate events too.
func newTestObserver() *obs.Observer {
	return obs.New(obs.Options{MetricsEvery: 16, TraceCap: 1 << 14, TraceFlows: true})
}

// obsScenario is one workload replayed with and without an observer and
// at several worker counts. Each run builds a fresh Sim.
type obsScenario struct {
	name string
	run  func(t *testing.T, workers int, ob *obs.Observer) *Sim
}

func obsScenarios() []obsScenario {
	return []obsScenario{
		{name: "saturated-per-pair", run: func(t *testing.T, workers int, ob *obs.Observer) *Sim {
			sc, err := schedule.BuildSORN(schedule.SORNConfig{N: 32, Nc: 4, Q: 2})
			if err != nil {
				t.Fatal(err)
			}
			s, err := New(Config{Schedule: sc.Schedule, Router: routing.NewSORN(sc),
				SlotNS: 100, PropNS: 300, Seed: 7, LatencySampleEvery: 8,
				Workers: workers, Obs: ob})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.RunSaturated(SaturationConfig{
				TM:             workload.Uniform(32),
				Size:           workload.FixedSize(2),
				PerPairBacklog: 4,
				WarmupSlots:    300,
				MeasureSlots:   900,
			}); err != nil {
				t.Fatal(err)
			}
			return s
		}},
		{name: "openloop-failures", run: func(t *testing.T, workers int, ob *obs.Observer) *Sim {
			n := 27
			orn, err := schedule.BuildOptimalORN(n, 3)
			if err != nil {
				t.Fatal(err)
			}
			s, err := New(Config{Schedule: orn.Schedule, Router: routing.NewORN(orn),
				SlotNS: 100, PropNS: 400, Seed: 3, LatencySampleEvery: 1,
				QueueLimit: 16, Workers: workers, Obs: ob})
			if err != nil {
				t.Fatal(err)
			}
			s.StartMeasuring()
			gen, err := workload.NewPoissonFlows(workload.Uniform(n), workload.FixedSize(3), 0.3, 9)
			if err != nil {
				t.Fatal(err)
			}
			flows := gen.Window(0, 1200)
			if _, err := s.RunOpenLoop(flows[:len(flows)/2], 600); err != nil {
				t.Fatal(err)
			}
			s.FailLink(1, 2)
			s.FailNode(5)
			if _, err := s.RunOpenLoop(flows[len(flows)/2:], 1200); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 20000 && !s.Drained(); i++ {
				s.Step()
			}
			return s
		}},
		{name: "reconfigure", run: func(t *testing.T, workers int, ob *obs.Observer) *Sim {
			a, err := schedule.BuildSORN(schedule.SORNConfig{N: 24, Nc: 4, Q: 2})
			if err != nil {
				t.Fatal(err)
			}
			s, err := New(Config{Schedule: a.Schedule, Router: routing.NewSORN(a),
				SlotNS: 100, PropNS: 300, Seed: 21, LatencySampleEvery: 2,
				Workers: workers, Obs: ob})
			if err != nil {
				t.Fatal(err)
			}
			s.StartMeasuring()
			for i := 0; i < 24; i++ {
				s.InjectFlow(i, (i+7)%24, 1+i%5)
			}
			for i := 0; i < 40; i++ {
				s.Step()
			}
			b, err := schedule.BuildSORN(schedule.SORNConfig{N: 24, Nc: 3, Q: 1.5})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Reconfigure(b.Schedule, routing.NewSORN(b)); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 20000 && !s.Drained(); i++ {
				s.Step()
			}
			return s
		}},
	}
}

// eventsEqual asserts two event streams are identical element-wise: the
// trace must not depend on the worker count.
func eventsEqual(t *testing.T, a, b []obs.Event) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("event streams differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event[%d] differs:\n  serial   %+v\n  parallel %+v", i, a[i], b[i])
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
// scenario (saturated per-pair draining, open-loop with mid-run link and
// node failures, mid-run reconfiguration) it runs obs-off and obs-on at
// Workers 1 and 4 and requires bit-identical Stats, and additionally
// requires that the obs-on event trace and metric series themselves are
// identical across worker counts.
func TestObsNonPerturbation(t *testing.T) {
	type capture struct {
		sim    *Sim
		events []obs.Event
		series [][]string
	}
	for _, sc := range obsScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			caps := make(map[int]map[bool]capture)
			for _, workers := range []int{1, 4} {
				caps[workers] = make(map[bool]capture)
				for _, withObs := range []bool{false, true} {
					var ob *obs.Observer
					if withObs {
						ob = newTestObserver()
					}
					sim := sc.run(t, workers, ob)
					c := capture{sim: sim}
					if withObs {
						c.events = ob.Events()
						c.series = ob.SeriesRows()
					}
					caps[workers][withObs] = c
				}
				off, on := caps[workers][false], caps[workers][true]
				statsEqual(t, &off.sim.stats, &on.sim.stats)
				if off.sim.Backlog() != on.sim.Backlog() || off.sim.InFlight() != on.sim.InFlight() {
					t.Fatalf("workers=%d: observer perturbed queues: backlog/inflight %d/%d vs %d/%d",
						workers, off.sim.Backlog(), off.sim.InFlight(), on.sim.Backlog(), on.sim.InFlight())
				}
				if off.sim.FlowsCompleted() != on.sim.FlowsCompleted() {
					t.Fatalf("workers=%d: observer perturbed completions: %d vs %d",
						workers, off.sim.FlowsCompleted(), on.sim.FlowsCompleted())
				}
			}
			statsEqual(t, &caps[1][true].sim.stats, &caps[4][true].sim.stats)
			eventsEqual(t, caps[1][true].events, caps[4][true].events)
			seriesEqual(t, caps[1][true].series, caps[4][true].series)
		})
	}
}

// TestObsFailureSignals checks the observer actually captures what the
// failure scenario does: the lost_cells counter mirrors Stats.LostCells
// exactly, and the trace carries the failure and flow lifecycle events.
func TestObsFailureSignals(t *testing.T) {
	ob := newTestObserver()
	var sim *Sim
	for _, sc := range obsScenarios() {
		if sc.name == "openloop-failures" {
			sim = sc.run(t, 2, ob)
		}
	}
	if sim == nil {
		t.Fatal("openloop-failures scenario missing")
	}
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
	var sim *Sim
	for _, sc := range obsScenarios() {
		if sc.name == "reconfigure" {
			sim = sc.run(t, 1, ob)
		}
	}
	if sim == nil {
		t.Fatal("reconfigure scenario missing")
	}
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

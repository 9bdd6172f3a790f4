package netsim

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/matching"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/schedule"
	"repro/internal/stats"
	"repro/internal/workload"
)

// sampleEqual compares two sample streams exactly (bitwise, in insertion
// order): which latencies are sampled, their values, and their order.
func sampleEqual(t *testing.T, name string, a, b *stats.Sample) {
	t.Helper()
	av, bv := a.Values(), b.Values()
	if len(av) != len(bv) {
		t.Fatalf("%s: %d samples vs %d", name, len(av), len(bv))
	}
	for i := range av {
		if av[i] != bv[i] {
			t.Fatalf("%s[%d]: %v vs %v", name, i, av[i], bv[i])
		}
	}
}

// statsEqual asserts two Stats are bit-identical, counters and samples.
func statsEqual(t *testing.T, a, b *Stats) {
	t.Helper()
	type counters struct {
		delivered, injected, sent, idle, lost, dropped, measured, completed int64
	}
	ca := counters{a.DeliveredCells, a.InjectedCells, a.SentCells, a.IdleSlots,
		a.LostCells, a.DroppedCells, a.MeasuredSlots, a.CompletedFlows}
	cb := counters{b.DeliveredCells, b.InjectedCells, b.SentCells, b.IdleSlots,
		b.LostCells, b.DroppedCells, b.MeasuredSlots, b.CompletedFlows}
	if ca != cb {
		t.Fatalf("counters differ:\n  want %+v\n  got  %+v", ca, cb)
	}
	sampleEqual(t, "LatencySlots", &a.LatencySlots, &b.LatencySlots)
	sampleEqual(t, "FCTSlots", &a.FCTSlots, &b.FCTSlots)
	for h := range a.LatencyByHops {
		sampleEqual(t, fmt.Sprintf("LatencyByHops[%d]", h), &a.LatencyByHops[h], &b.LatencyByHops[h])
	}
}

// scenario is one workload the engine-equivalence, concurrency and
// observer tests all replay. Each run builds a fresh Sim — on the dense
// reference engine when dense is set, with ob attached when non-nil —
// and measures from its first slot, so conservation covers every cell.
type scenario struct {
	name string
	run  func(t *testing.T, dense bool, ob *obs.Observer) *Sim
}

func scenarios() []scenario {
	return []scenario{
		{name: "saturated", run: func(t *testing.T, dense bool, ob *obs.Observer) *Sim {
			n := 32
			sched := matching.RoundRobin(n)
			v, err := routing.NewVLB(sched)
			if err != nil {
				t.Fatal(err)
			}
			s, err := newEngine(Config{Schedule: sched, Router: v, SlotNS: 100, PropNS: 500,
				Seed: 11, LatencySampleEvery: 4, Planes: 2, Obs: ob}, dense)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.RunSaturated(SaturationConfig{
				TM:            workload.Uniform(n),
				Size:          workload.FixedSize(4),
				TargetBacklog: 64,
				MeasureSlots:  2000,
			}); err != nil {
				t.Fatal(err)
			}
			return s
		}},
		{name: "saturated-per-pair", run: func(t *testing.T, dense bool, ob *obs.Observer) *Sim {
			sc, err := schedule.BuildSORN(schedule.SORNConfig{N: 32, Nc: 4, Q: 2})
			if err != nil {
				t.Fatal(err)
			}
			s, err := newEngine(Config{Schedule: sc.Schedule, Router: routing.NewSORN(sc),
				SlotNS: 100, PropNS: 300, Seed: 7, LatencySampleEvery: 8, Obs: ob}, dense)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.RunSaturated(SaturationConfig{
				TM:             workload.Uniform(32),
				Size:           workload.FixedSize(2),
				PerPairBacklog: 4,
				MeasureSlots:   1200,
			}); err != nil {
				t.Fatal(err)
			}
			return s
		}},
		{name: "openloop-failures", run: func(t *testing.T, dense bool, ob *obs.Observer) *Sim {
			n := 27
			orn, err := schedule.BuildOptimalORN(n, 3)
			if err != nil {
				t.Fatal(err)
			}
			s, err := newEngine(Config{Schedule: orn.Schedule, Router: routing.NewORN(orn),
				SlotNS: 100, PropNS: 400, Seed: 3, LatencySampleEvery: 1,
				QueueLimit: 16, Obs: ob}, dense)
			if err != nil {
				t.Fatal(err)
			}
			s.StartMeasuring()
			gen, err := workload.NewPoissonFlows(workload.Uniform(n), workload.FixedSize(3), 0.3, 9)
			if err != nil {
				t.Fatal(err)
			}
			flows := gen.Window(0, 1200)
			// Fail a link and a node mid-run, so cells are lost in both
			// phases and in the FailNode purge.
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
		{name: "reconfigure", run: func(t *testing.T, dense bool, ob *obs.Observer) *Sim {
			a, err := schedule.BuildSORN(schedule.SORNConfig{N: 24, Nc: 4, Q: 2})
			if err != nil {
				t.Fatal(err)
			}
			s, err := newEngine(Config{Schedule: a.Schedule, Router: routing.NewSORN(a),
				SlotNS: 100, PropNS: 300, Seed: 21, LatencySampleEvery: 2, Obs: ob}, dense)
			if err != nil {
				t.Fatal(err)
			}
			s.StartMeasuring()
			r := rng.New(21)
			for i := 0; i < 200; i++ {
				src := r.Intn(24)
				dst := r.Intn(24)
				if src == dst {
					continue
				}
				s.InjectFlow(src, dst, 1+r.Intn(5))
			}
			for i := 0; i < 40; i++ {
				s.Step()
			}
			// Swap to a different clique split mid-flight: every queued
			// cell is re-routed, in-flight cells re-route on landing.
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

// scenarioNamed returns the named entry of scenarios.
func scenarioNamed(t *testing.T, name string) scenario {
	t.Helper()
	for _, sc := range scenarios() {
		if sc.name == name {
			return sc
		}
	}
	t.Fatalf("no scenario %q", name)
	return scenario{}
}

// activeScenario returns the named scenario as an active-engine run with
// no observer.
func activeScenario(t *testing.T, name string) func(t *testing.T) *Sim {
	sc := scenarioNamed(t, name)
	return func(t *testing.T) *Sim { return sc.run(t, false, nil) }
}

// workerCounts are the numbers of simulators a scenario is replayed on
// at once, the way k sweep workers each step their own Sim. NumCPU is
// included so hosts with more cores run more copies side by side.
func workerCounts() []int {
	counts := []int{1, 2, 3, 5, 8}
	if n := runtime.NumCPU(); n > 1 {
		counts = append(counts, n)
	}
	return counts
}

// concurrently runs check on k parallel subtests, copy=0 … copy=k−1,
// each building and stepping its own simulator. Simulators share only
// read-only inputs (schedules, routers, flow lists), so every copy must
// reproduce a lone run bit for bit; under -race this also catches a
// write to shared state.
func concurrently(t *testing.T, k int, check func(t *testing.T)) {
	for i := 0; i < k; i++ {
		t.Run(fmt.Sprintf("copy=%d", i), func(t *testing.T) {
			t.Parallel()
			check(t)
		})
	}
}

// runScenario runs scenario alone, then on k concurrent simulators for
// every k past the first of workerCounts, and checks each copy's Stats
// and queue/flow state against the lone run.
func runScenario(t *testing.T, scenario func(t *testing.T) *Sim) {
	t.Helper()
	ref := scenario(t)
	for _, w := range workerCounts()[1:] {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			concurrently(t, w, func(t *testing.T) {
				compareSims(t, ref, scenario(t))
			})
		})
	}
}

func TestParallelDeterminismSaturated(t *testing.T) {
	runScenario(t, activeScenario(t, "saturated"))
}

func TestParallelDeterminismSaturatedPerPair(t *testing.T) {
	runScenario(t, activeScenario(t, "saturated-per-pair"))
}

func TestParallelDeterminismOpenLoopFailures(t *testing.T) {
	runScenario(t, activeScenario(t, "openloop-failures"))
}

func TestParallelDeterminismReconfigure(t *testing.T) {
	runScenario(t, activeScenario(t, "reconfigure"))
}

// viaDst routes every cell src → dst → relay → dst, so between its
// first and last hop a cell waits in a queue at its own destination —
// the cell a reconfiguration delivers in place.
type viaDst struct{ n int }

func (r viaDst) Name() string { return "via-dst" }
func (r viaDst) N() int       { return r.n }
func (r viaDst) MaxHops() int { return 3 }
func (r viaDst) RouteInto(buf routing.Route, src, dst, slot int, g *rng.RNG) routing.Route {
	return append(buf, src, dst, (dst+1)%r.n, dst)
}
func (r viaDst) Paths(buf routing.Route, src, dst int, fn func(routing.Route, float64)) routing.Route {
	buf = append(buf[:0], src, dst, (dst+1)%r.n, dst)
	fn(buf, 1)
	return buf
}
func (r viaDst) AddLoads(load []float64, stride, src, dst int, rate, hopWeighted float64) float64 {
	relay := (dst + 1) % r.n
	load[src*stride+dst] += rate
	load[dst*stride+relay] += rate
	load[relay*stride+dst] += rate
	return hopWeighted + rate*3
}

// TestSerialCallsPublishBeforeReturn: InjectFlow, FailNode and
// Reconfigure write each effect where it happens, like a Step does, so
// a caller reading Stats, a flow or the backlog between Steps sees
// every effect of the call, with other simulators stepping alongside,
// and a cell Reconfigure delivers in place finishes its flow inside the
// reconfiguration's trace bracket.
func TestSerialCallsPublishBeforeReturn(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			concurrently(t, workers, checkSerialCallsPublish)
		})
	}
}

func checkSerialCallsPublish(t *testing.T) {
	const n = 8
	sched := matching.RoundRobin(n)
	ob := newTestObserver()
	s, err := New(Config{Schedule: sched, Router: viaDst{n}, Seed: 5,
		QueueLimit: 2, Obs: ob})
	if err != nil {
		t.Fatal(err)
	}
	s.StartMeasuring()

	// Five cells into a 2-cell VOQ: three drop at injection.
	f0 := s.InjectFlow(0, 3, 5)
	if st := s.Stats(); st.DroppedCells != 3 || f0.Lost() != 3 || s.Backlog() != 2 {
		t.Fatalf("after InjectFlow: dropped %d, flow lost %d, backlog %d; want 3, 3, 2",
			st.DroppedCells, f0.Lost(), s.Backlog())
	}
	checkConservation(t, s)

	// Failing the source purges its two queued cells.
	f1 := s.InjectFlow(1, 3, 1)
	s.FailNode(0)
	if st := s.Stats(); st.LostCells != 2 || f0.Lost() != 5 || s.Backlog() != 1 {
		t.Fatalf("after FailNode: lost %d, flow lost %d, backlog %d; want 2, 5, 1",
			st.LostCells, f0.Lost(), s.Backlog())
	}
	checkConservation(t, s)

	// Step until f1's cell waits at its destination for the relay hop.
	for i := 0; i < 4*n && s.backlog[3] == 0; i++ {
		s.Step()
	}
	if s.backlog[3] != 1 || f1.Delivered() != 0 {
		t.Fatalf("scenario broken: %d cells queued at node 3, flow delivered %d; want 1, 0",
			s.backlog[3], f1.Delivered())
	}
	d, err := routing.NewDirect(sched)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Reconfigure(sched, d); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.DeliveredCells != 1 || !f1.Done() || s.Backlog() != 0 {
		t.Fatalf("after Reconfigure: delivered %d, flow done %v, backlog %d; want 1, true, 0",
			st.DeliveredCells, f1.Done(), s.Backlog())
	}
	checkConservation(t, s)
	var bracket []string
	in := false
	for _, e := range ob.Events() {
		switch {
		case e.Type == obs.EvReconfigBegin:
			in = true
		case e.Type == obs.EvReconfigCommit:
			in = false
		case in:
			bracket = append(bracket, fmt.Sprintf("%s flow %d", e.Type, e.Flow))
		}
	}
	if want := fmt.Sprintf("%s flow %d", obs.EvFlowFinish, f1.id); len(bracket) != 1 || bracket[0] != want {
		t.Fatalf("events between reconfig_begin and reconfig_commit = %v, want [%s]", bracket, want)
	}
}

// parityRelay routes a cell injected at an even slot through relay even
// and one injected at an odd slot through relay odd; a negative relay
// routes directly. A flow's consecutive cells are injected at
// consecutive slots, so its two cells take the two routes.
type parityRelay struct{ n, even, odd int }

func (r parityRelay) Name() string { return "parity-relay" }
func (r parityRelay) N() int       { return r.n }
func (r parityRelay) MaxHops() int { return 2 }
func (r parityRelay) route(buf routing.Route, src, dst, relay int) routing.Route {
	if relay < 0 {
		return append(buf, src, dst)
	}
	return append(buf, src, relay, dst)
}
func (r parityRelay) RouteInto(buf routing.Route, src, dst, slot int, g *rng.RNG) routing.Route {
	if slot%2 == 0 {
		return r.route(buf, src, dst, r.even)
	}
	return r.route(buf, src, dst, r.odd)
}
func (r parityRelay) Paths(buf routing.Route, src, dst int, fn func(routing.Route, float64)) routing.Route {
	for _, relay := range []int{r.even, r.odd} {
		buf = r.route(buf[:0], src, dst, relay)
		fn(buf, 0.5)
	}
	return buf
}
func (r parityRelay) AddLoads(load []float64, stride, src, dst int, rate, hopWeighted float64) float64 {
	w := rate * 0.5
	var buf routing.Route
	for _, relay := range []int{r.even, r.odd} {
		buf = r.route(buf[:0], src, dst, relay)
		for h := 1; h < len(buf); h++ {
			load[buf[h-1]*stride+buf[h]] += w
		}
		hopWeighted += w * float64(len(buf)-1)
	}
	return hopWeighted
}

// TestSameSlotLossAndDelivery: a two-cell flow loses one cell and
// delivers the other in the same Step. Whichever comes first, the flow
// settles exactly once, is not Done, completes no flow and emits no
// flow_finish event. On the 8-node round robin with one-slot
// propagation, u's circuit at slot t goes to u + t%7 + 1.
func TestSameSlotLossAndDelivery(t *testing.T) {
	cases := []struct {
		name string
		// The flow 0→dst is injected at slot inject; its even-slot cell
		// goes through relay even, its odd-slot cell through relay odd.
		dst, even, odd int
		inject         int64
		failLink       [2]int // failed before the first Step; {0, 0} for none
		failNode       int    // failed just before Step at slot failAt; -1 for none
		failAt         int64
		steps          int64 // Steps run; the last one loses and delivers
		inFlight       int   // of the two cells, in flight before the last Step
	}{
		// Both cells leave at slot 8 (0→2 and, via relay 3, 3→5) and land
		// at slot 9: the one at failed node 2 is lost before the one at
		// node 5 is delivered.
		{name: "land-loss-before-dst", dst: 5, even: 3, odd: 2, inject: 2,
			failNode: 2, failAt: 9, steps: 10, inFlight: 2},
		// Both cells leave at slot 5 (0→6 and, via relay 5, 5→3) and land
		// at slot 6: node 3 delivers before failed node 6 loses.
		{name: "land-loss-after-dst", dst: 3, even: 5, odd: 6, inject: 0,
			failNode: 6, failAt: 6, steps: 7, inFlight: 2},
		// The direct cell leaves on 0→1 at slot 0 and is delivered at slot
		// 1, whose transmit pops the other cell onto the failed link 0→2.
		{name: "transmit-loss-after-delivery", dst: 1, even: -1, odd: 2, inject: 0,
			failLink: [2]int{0, 2}, failNode: -1, steps: 2, inFlight: 1},
	}
	for _, tc := range cases {
		for _, dense := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/dense=%v", tc.name, dense), func(t *testing.T) {
				const n = 8
				ob := newTestObserver()
				s, err := newEngine(Config{Schedule: matching.RoundRobin(n),
					Router: parityRelay{n, tc.even, tc.odd}, SlotNS: 100, PropNS: 100, Obs: ob}, dense)
				if err != nil {
					t.Fatal(err)
				}
				s.StartMeasuring()
				if tc.failLink != [2]int{} {
					s.FailLink(tc.failLink[0], tc.failLink[1])
				}
				var f *FlowState
				for s.Slot() < tc.steps {
					if s.Slot() == tc.inject {
						f = s.InjectFlow(0, tc.dst, 2)
					}
					if tc.failNode >= 0 && s.Slot() == tc.failAt {
						s.FailNode(tc.failNode)
					}
					if s.Slot() == tc.steps-1 && (f.Delivered() != 0 || f.Lost() != 0 ||
						s.InFlight() != tc.inFlight || s.Backlog() != int64(2-tc.inFlight)) {
						t.Fatalf("scenario broken before the last Step: delivered %d, lost %d, %d cells in flight, %d queued",
							f.Delivered(), f.Lost(), s.InFlight(), s.Backlog())
					}
					s.Step()
				}
				if f.Lost() != 1 || f.Delivered() != 1 || f.Done() {
					t.Fatalf("flow: lost %d, delivered %d, done %v; want 1, 1, false", f.Lost(), f.Delivered(), f.Done())
				}
				if s.FlowsCompleted() != 0 || s.Stats().CompletedFlows != 0 {
					t.Fatalf("FlowsCompleted %d, Stats.CompletedFlows %d; want 0, 0", s.FlowsCompleted(), s.Stats().CompletedFlows)
				}
				for _, e := range ob.Events() {
					if e.Type == obs.EvFlowFinish {
						t.Fatalf("unexpected %s event %+v", e.Type, e)
					}
				}
				if !s.Drained() {
					t.Fatalf("not drained: %d queued, %d in flight", s.Backlog(), s.InFlight())
				}
				checkConservation(t, s)
			})
		}
	}
}

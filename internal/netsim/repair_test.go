package netsim

import (
	"testing"

	"repro/internal/faultplan"
	"repro/internal/matching"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/schedule"
	"repro/internal/workload"
)

func TestRepairDuringStepPanics(t *testing.T) {
	sched := matching.RoundRobin(8)
	d, _ := routing.NewDirect(sched)
	s := newSim(t, sched, d, 49)
	s.FailLink(0, 1)
	s.FailNode(2)
	s.stepping = true // as if called from inside a Step
	for name, fn := range map[string]func(){
		"RepairLink": func() { s.RepairLink(0, 1) },
		"RepairNode": func() { s.RepairNode(2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s during Step did not panic", name)
				}
			}()
			fn()
		}()
	}
	s.stepping = false
	// Between Steps both repairs are legal again.
	s.RepairLink(0, 1)
	s.RepairNode(2)
}

func TestRepairOfLiveEntityIsNoOp(t *testing.T) {
	sched := matching.RoundRobin(8)
	d, _ := routing.NewDirect(sched)
	ob := obs.New(obs.Options{})
	s, err := New(Config{Schedule: sched, Router: d, SlotNS: 100, PropNS: 500, Seed: 5, Obs: ob})
	if err != nil {
		t.Fatal(err)
	}
	// Nothing has failed: repairs must change nothing and emit nothing —
	// including RepairLink before the failure bitmap even exists.
	s.RepairLink(0, 1)
	s.RepairNode(2)
	s.FailNode(2)
	s.RepairNode(2)
	s.RepairNode(2) // second repair of the same node: no-op
	var repairs int
	for _, e := range ob.Events() {
		if e.Type == obs.EvRepairLink || e.Type == obs.EvRepairNode {
			repairs++
		}
	}
	if repairs != 1 {
		t.Fatalf("%d repair events emitted, want exactly 1 (the real repair)", repairs)
	}
}

func TestRepairedLinkCarriesTrafficAgain(t *testing.T) {
	// Direct routing on a round robin: 0→3 uses exactly the link 0→3, so
	// failing it loses everything and repairing it restores everything.
	sched := matching.RoundRobin(8)
	d, _ := routing.NewDirect(sched)
	s := newSim(t, sched, d, 50)
	s.StartMeasuring()
	s.FailLink(0, 3)
	f1 := s.InjectFlow(0, 3, 4)
	for i := 0; i < 100 && !s.Drained(); i++ {
		s.Step()
	}
	if f1.Delivered() != 0 {
		t.Fatalf("failed link delivered %d cells", f1.Delivered())
	}
	s.RepairLink(0, 3)
	f2 := s.InjectFlow(0, 3, 4)
	for i := 0; i < 100 && !f2.Done(); i++ {
		s.Step()
	}
	if f2.Delivered() != 4 {
		t.Fatalf("repaired link delivered %d of 4 cells", f2.Delivered())
	}
	checkConservation(t, s)
}

func TestInjectToRepairedNodeResumesDelivery(t *testing.T) {
	sched := matching.RoundRobin(8)
	d, _ := routing.NewDirect(sched)
	s := newSim(t, sched, d, 51)
	s.StartMeasuring()
	s.FailNode(3)
	// Traffic to and from the dead node is lost...
	to := s.InjectFlow(0, 3, 4)
	from := s.InjectFlow(3, 5, 4)
	for i := 0; i < 100 && !s.Drained(); i++ {
		s.Step()
	}
	if to.Delivered() != 0 || from.Delivered() != 0 {
		t.Fatalf("dead node delivered: to=%d from=%d", to.Delivered(), from.Delivered())
	}
	checkConservation(t, s)
	// ...and flows normally after the repair, in both directions.
	s.RepairNode(3)
	to2 := s.InjectFlow(0, 3, 4)
	from2 := s.InjectFlow(3, 5, 4)
	for i := 0; i < 200 && !(to2.Done() && from2.Done()); i++ {
		s.Step()
	}
	if to2.Delivered() != 4 || from2.Delivered() != 4 {
		t.Fatalf("repaired node delivered: to=%d from=%d, want 4/4", to2.Delivered(), from2.Delivered())
	}
	checkConservation(t, s)
}

func TestFailRepairFailChurnConservation(t *testing.T) {
	// Cells are never created or destroyed across fail→repair→fail
	// churn: every injected cell ends up delivered, dropped, lost, or
	// still queued/in flight, at every point of the churn cycle.
	sc, err := schedule.BuildSORN(schedule.SORNConfig{N: 16, Nc: 4, Q: 2})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Schedule: sc.Schedule, Router: routing.NewSORN(sc), SlotNS: 100, PropNS: 300, Seed: 52})
	if err != nil {
		t.Fatal(err)
	}
	s.StartMeasuring()
	inject := func() {
		for u := 0; u < 16; u++ {
			for v := 0; v < 16; v++ {
				if u != v {
					s.InjectFlow(u, v, 2)
				}
			}
		}
	}
	step := func(k int) {
		for i := 0; i < k; i++ {
			s.Step()
		}
		checkConservation(t, s)
	}
	inject()
	step(5)
	for cycle := 0; cycle < 3; cycle++ {
		victim := 3 + cycle*4
		s.FailNode(victim)
		s.FailLink(0, 9)
		checkConservation(t, s) // purge accounting, immediately
		inject()
		step(7)
		s.RepairNode(victim)
		s.RepairLink(0, 9)
		inject()
		step(7)
		// Re-fail the same node after repair: second purge must account
		// exactly like the first.
		s.FailNode(victim)
		checkConservation(t, s)
		s.RepairNode(victim)
		step(3)
	}
	for i := 0; i < 20000 && !s.Drained(); i++ {
		s.Step()
	}
	if !s.Drained() {
		t.Fatal("network did not drain after churn (cells stuck or vanished)")
	}
	// Drained, so this also checks every flow settled exactly once with
	// delivered + lost == size.
	checkConservation(t, s)
}

// TestParallelDeterminismFaultPlan extends the concurrent-simulator
// bit-identity guarantee (runScenario) to runs driven by an active fault
// plan: scripted outages plus random churn, applied between Steps by the
// faultplan driver, over open-loop traffic. The copies share the plan
// and the flow list.
func TestParallelDeterminismFaultPlan(t *testing.T) {
	n := 16
	scripted, err := faultplan.New(n, append(
		faultplan.Outage(7, -1, 200, 800),
		faultplan.Outage(0, 9, 300, 600)...))
	if err != nil {
		t.Fatal(err)
	}
	churn, err := faultplan.Churn(faultplan.ChurnConfig{
		N: n, Start: 0, End: 1500, LinkRate: 0.01, NodeRate: 0.004, Down: 120, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := faultplan.Merge(scripted, churn)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewPoissonFlows(workload.Uniform(n), workload.FixedSize(4), 0.3, 13)
	if err != nil {
		t.Fatal(err)
	}
	flows := gen.Window(0, 1500)

	runScenario(t, func(t *testing.T) *Sim {
		sched := matching.RoundRobin(n)
		v, err := routing.NewVLB(sched)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{Schedule: sched, Router: v, SlotNS: 100, PropNS: 500,
			Seed: 53, LatencySampleEvery: 2})
		if err != nil {
			t.Fatal(err)
		}
		s.StartMeasuring()
		drv := faultplan.NewDriver(plan)
		next := 0
		for slot := int64(0); slot < 2000; slot++ {
			drv.Advance(s, slot)
			for next < len(flows) && flows[next].Arrival <= slot {
				s.InjectFlow(flows[next].Src, flows[next].Dst, flows[next].Size)
				next++
			}
			s.Step()
		}
		checkConservation(t, s)
		return s
	})
}

// TestRunOpenLoopSegments pins RunOpenLoop's segment contract: a chain
// of calls split at seeded random slots, with a fault plan applied
// between segments, is bit-identical to one call per fault-free stretch
// — Stats, metric series, event trace and the flows returned as not yet
// due.
func TestRunOpenLoopSegments(t *testing.T) {
	const n, end = 16, int64(1200)
	churn, err := faultplan.Churn(faultplan.ChurnConfig{
		N: n, Start: 0, End: end, LinkRate: 0.01, NodeRate: 0.004, Down: 120, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	outage, err := faultplan.New(n, faultplan.Outage(2, -1, 100, 700))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := faultplan.Merge(churn, outage)
	if err != nil {
		t.Fatal(err)
	}
	sched := matching.RoundRobin(n)
	vlb, err := routing.NewVLB(sched)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewPoissonFlows(workload.Uniform(n), workload.FixedSize(4), 0.05, 8)
	if err != nil {
		t.Fatal(err)
	}
	flows := gen.Window(0, end+300)
	r := rng.New(61)
	cuts := make([]int64, 40)
	for i := range cuts {
		cuts[i] = int64(r.Intn(int(end)))
	}

	type result struct {
		sim      *Sim
		rest     []workload.Flow
		segments int
		events   []obs.Event
		series   [][]string
	}
	run := func(cuts []int64) result {
		ob := newTestObserver()
		s, err := New(Config{Schedule: sched, Router: vlb, SlotNS: 100, PropNS: 500,
			Seed: 53, LatencySampleEvery: 2, Obs: ob})
		if err != nil {
			t.Fatal(err)
		}
		s.StartMeasuring()
		drv := faultplan.NewDriver(plan)
		res := result{sim: s, rest: flows}
		for at := int64(0); at < end; res.segments++ {
			drv.Advance(s, at)
			stop := end
			if ev, ok := drv.NextSlot(); ok && ev < stop {
				stop = ev
			}
			for _, c := range cuts {
				if c > at && c < stop {
					stop = c
				}
			}
			if res.rest, err = s.RunOpenLoop(res.rest, stop); err != nil {
				t.Fatal(err)
			}
			at = stop
		}
		res.events, res.series = ob.Events(), ob.SeriesRows()
		return res
	}

	ref := run(nil)
	got := run(cuts)
	if got.segments <= ref.segments {
		t.Fatalf("the cuts added no segments (%d vs %d)", got.segments, ref.segments)
	}
	if diff, ok := ref.sim.Stats().BitIdentical(got.sim.Stats()); !ok {
		t.Fatalf("chained segments differ from one call per stretch: %s", diff)
	}
	seriesEqual(t, ref.series, got.series)
	eventsEqual(t, ref.events, got.events)
	if len(got.rest) != len(ref.rest) || len(got.rest) == 0 || got.rest[0] != ref.rest[0] {
		t.Fatalf("%d flows left over, want %d", len(got.rest), len(ref.rest))
	}
}

// BenchmarkStepChurn prices the failure path: a saturated SORN fabric
// stepping under continuous link/node churn (one fault event between
// every few Steps), so fail/repair bookkeeping and the failed-entity
// checks in transmit/landing show up in the BENCH_netsim.json ledger.
func BenchmarkStepChurn(b *testing.B) {
	built, err := schedule.BuildSORN(schedule.SORNConfig{N: 128, Nc: 8, Q: 4.5})
	if err != nil {
		b.Fatal(err)
	}
	router := routing.NewSORN(built)
	var ob *obs.Observer
	if *benchObs {
		ob = obs.New(obs.Options{})
	}
	s, err := New(Config{Schedule: built.Schedule, Router: router, SlotNS: 100, PropNS: 500, Seed: 1, Obs: ob})
	if err != nil {
		b.Fatal(err)
	}
	tm, _ := workload.Locality(built.Cliques, 0.56)
	// Prime the backlog so every iteration does steady-state work.
	if _, err := s.RunSaturated(SaturationConfig{TM: tm, Size: workload.FixedSize(8), TargetBacklog: 64, WarmupSlots: 0, MeasureSlots: 100}); err != nil {
		b.Fatal(err)
	}
	// Deterministic churn cycle, all entities repaired by construction:
	// every 4th iteration fails a node and a link, every 4th+2 repairs
	// them, so half the Steps run with active failures.
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		victim := (i / 4) % 128
		peer := (victim + 17) % 128
		switch i % 4 {
		case 0:
			s.FailNode(victim)
			s.FailLink(peer, victim)
		case 2:
			s.RepairNode(victim)
			s.RepairLink(peer, victim)
		}
		s.Step()
	}
	b.StopTimer()
	// Leave the fabric fully repaired so iteration-count choices do not
	// change the drain the deferred checks would see.
	for u := 0; u < 128; u++ {
		s.RepairNode(u)
		for v := 0; v < 128; v++ {
			if u != v {
				s.RepairLink(u, v)
			}
		}
	}
}

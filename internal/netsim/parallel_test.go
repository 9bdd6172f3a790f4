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

// workerCounts are the shard counts every scenario is replayed under and
// checked bit-identical against the serial run. NumCPU is included so CI
// on multicore hosts exercises real parallelism; the fixed values cover
// uneven shard splits (3, 5) and more shards than cores.
func workerCounts() []int {
	counts := []int{1, 2, 3, 5, 8}
	if n := runtime.NumCPU(); n > 1 {
		counts = append(counts, n)
	}
	return counts
}

// sampleEqual compares two sample streams exactly (bitwise, in insertion
// order): worker sharding must not change which latencies are sampled,
// their values, or their order.
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
		t.Fatalf("counters differ:\n  serial   %+v\n  parallel %+v", ca, cb)
	}
	sampleEqual(t, "LatencySlots", &a.LatencySlots, &b.LatencySlots)
	sampleEqual(t, "FCTSlots", &a.FCTSlots, &b.FCTSlots)
	for h := range a.LatencyByHops {
		sampleEqual(t, fmt.Sprintf("LatencyByHops[%d]", h), &a.LatencyByHops[h], &b.LatencyByHops[h])
	}
}

// runScenario executes one scenario at every worker count and checks the
// resulting Stats (and queue/flow invariants) against the Workers:1 run.
func runScenario(t *testing.T, scenario func(t *testing.T, workers int) *Sim) {
	t.Helper()
	ref := scenario(t, 1)
	for _, w := range workerCounts()[1:] {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			got := scenario(t, w)
			statsEqual(t, &ref.stats, &got.stats)
			if ref.Backlog() != got.Backlog() || ref.InFlight() != got.InFlight() {
				t.Fatalf("backlog/inflight: %d/%d vs %d/%d",
					ref.Backlog(), ref.InFlight(), got.Backlog(), got.InFlight())
			}
			if ref.FlowsCompleted() != got.FlowsCompleted() {
				t.Fatalf("flows completed: %d vs %d", ref.FlowsCompleted(), got.FlowsCompleted())
			}
		})
	}
}

func TestParallelDeterminismSaturated(t *testing.T) {
	runScenario(t, func(t *testing.T, workers int) *Sim {
		n := 32
		sched := matching.RoundRobin(n)
		v, err := routing.NewVLB(sched)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{Schedule: sched, Router: v, SlotNS: 100, PropNS: 500,
			Seed: 11, LatencySampleEvery: 4, Planes: 2, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.RunSaturated(SaturationConfig{
			TM:            workload.Uniform(n),
			Size:          workload.FixedSize(4),
			TargetBacklog: 64,
			WarmupSlots:   500,
			MeasureSlots:  1500,
		}); err != nil {
			t.Fatal(err)
		}
		return s
	})
}

func TestParallelDeterminismSaturatedPerPair(t *testing.T) {
	runScenario(t, func(t *testing.T, workers int) *Sim {
		sc, err := schedule.BuildSORN(schedule.SORNConfig{N: 32, Nc: 4, Q: 2})
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{Schedule: sc.Schedule, Router: routing.NewSORN(sc),
			SlotNS: 100, PropNS: 300, Seed: 7, LatencySampleEvery: 8, Workers: workers})
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
	})
}

func TestParallelDeterminismOpenLoopFailures(t *testing.T) {
	runScenario(t, func(t *testing.T, workers int) *Sim {
		n := 27
		orn, err := schedule.BuildOptimalORN(n, 3)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{Schedule: orn.Schedule, Router: routing.NewORN(orn),
			SlotNS: 100, PropNS: 400, Seed: 3, LatencySampleEvery: 1,
			QueueLimit: 16, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		s.StartMeasuring()
		gen, err := workload.NewPoissonFlows(workload.Uniform(n), workload.FixedSize(3), 0.3, 9)
		if err != nil {
			t.Fatal(err)
		}
		flows := gen.Window(0, 1200)
		// Fail a link and a node mid-run so loss accounting is staged
		// through shards in both phases.
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
	})
}

func TestParallelDeterminismReconfigure(t *testing.T) {
	runScenario(t, func(t *testing.T, workers int) *Sim {
		sc, err := schedule.BuildSORN(schedule.SORNConfig{N: 24, Nc: 4, Q: 2})
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{Schedule: sc.Schedule, Router: routing.NewSORN(sc),
			SlotNS: 100, PropNS: 300, Seed: 21, LatencySampleEvery: 2, Workers: workers})
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
		// Swap to a different clique split mid-flight: every queued cell
		// is re-routed, in-flight cells re-route on landing.
		sc2, err := schedule.BuildSORN(schedule.SORNConfig{N: 24, Nc: 3, Q: 1.5})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Reconfigure(sc2.Schedule, routing.NewSORN(sc2)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20000 && !s.Drained(); i++ {
			s.Step()
		}
		return s
	})
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
// Reconfigure stage their shared effects like a Step does, and must
// fold them before they return — a caller reading Stats, a flow or the
// backlog between Steps sees every effect of the call, at every worker
// count, and a cell Reconfigure delivers in place finishes its flow
// inside the reconfiguration's trace bracket.
func TestSerialCallsPublishBeforeReturn(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const n = 8
			sched := matching.RoundRobin(n)
			ob := newTestObserver()
			s, err := New(Config{Schedule: sched, Router: viaDst{n}, Seed: 5,
				QueueLimit: 2, Workers: workers, Obs: ob})
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
		})
	}
}

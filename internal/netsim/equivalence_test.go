package netsim

import (
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/routing"
	"repro/internal/schedule"
	"repro/internal/workload"
)

// The dense reference engine (dense_test.go) is the executable
// specification of the per-slot algorithm: every test here replays one
// scenario under it and under the production active-set engine and
// requires bit-identical results —
// Stats counters, sample streams, queue/flow state, and (where an
// observer is attached) the metric series rows and the event trace.
// This is the active-set engine's headline invariant; the scenarios
// deliberately cover everything that moves occupancy sideways: fault
// churn with repairs, mid-run reconfiguration, queue-limit drops,
// multiple planes, pooled reuse via Reset, and quiescent stretches the
// active engine fast-forwards while the dense engine steps through.

// runDenseActive replays scenario under both engines at worker counts
// 1 and 2 (serial vs staged-shard-merge paths) and compares each active
// run against the dense serial reference.
func runDenseActive(t *testing.T, scenario func(t *testing.T, dense bool, workers int) *Sim) {
	t.Helper()
	ref := scenario(t, true, 1)
	for _, workers := range []int{1, 2} {
		for _, dense := range []bool{true, false} {
			if dense && workers == 1 {
				continue // the reference itself
			}
			t.Run(fmt.Sprintf("dense=%v/workers=%d", dense, workers), func(t *testing.T) {
				got := scenario(t, dense, workers)
				compareSims(t, ref, got)
				checkConservation(t, got)
			})
		}
	}
}

// obsEqual asserts two observers captured identical telemetry: same
// series header, same rows (every snapshot slot, every metric value),
// same event trace in emission order.
func obsEqual(t *testing.T, a, b *obs.Observer) {
	t.Helper()
	ah, bh := a.SeriesHeader(), b.SeriesHeader()
	if fmt.Sprint(ah) != fmt.Sprint(bh) {
		t.Fatalf("series headers differ:\n  %v\n  %v", ah, bh)
	}
	ar, br := a.SeriesRows(), b.SeriesRows()
	if len(ar) != len(br) {
		t.Fatalf("series rows: %d vs %d", len(ar), len(br))
	}
	for i := range ar {
		if fmt.Sprint(ar[i]) != fmt.Sprint(br[i]) {
			t.Fatalf("series row %d differs:\n  %v\n  %v", i, ar[i], br[i])
		}
	}
	ae, be := a.Events(), b.Events()
	if len(ae) != len(be) {
		t.Fatalf("events: %d vs %d", len(ae), len(be))
	}
	for i := range ae {
		if ae[i] != be[i] {
			t.Fatalf("event %d differs:\n  %+v\n  %+v", i, ae[i], be[i])
		}
	}
}

// sparseFlows is a workload with real quiescent stretches: a low-rate
// Poisson stream over a long horizon, so the active engine's
// fast-forward fires many times while the dense reference steps through
// every slot.
func sparseFlows(t *testing.T, tm *workload.Matrix, horizon int64) []workload.Flow {
	t.Helper()
	gen, err := workload.NewPoissonFlows(tm, workload.FixedSize(6), 0.002, 17)
	if err != nil {
		t.Fatal(err)
	}
	return gen.Window(0, horizon)
}

func TestDenseActiveEquivalenceSparseOpenLoop(t *testing.T) {
	runDenseActive(t, func(t *testing.T, dense bool, workers int) *Sim {
		sc, err := schedule.BuildSORN(schedule.SORNConfig{N: 32, Nc: 4, Q: 2})
		if err != nil {
			t.Fatal(err)
		}
		s, err := newEngine(Config{Schedule: sc.Schedule, Router: routing.NewSORN(sc),
			SlotNS: 100, PropNS: 500, Seed: 5, LatencySampleEvery: 2,
			Workers: workers}, dense)
		if err != nil {
			t.Fatal(err)
		}
		s.StartMeasuring()
		tm, err := workload.Locality(sc.Cliques, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.RunOpenLoop(sparseFlows(t, tm, 4000), 5000); err != nil {
			t.Fatal(err)
		}
		return s
	})
}

func TestDenseActiveEquivalenceFaultChurn(t *testing.T) {
	runDenseActive(t, func(t *testing.T, dense bool, workers int) *Sim {
		n := 32
		sc, err := schedule.BuildSORN(schedule.SORNConfig{N: n, Nc: 4, Q: 2})
		if err != nil {
			t.Fatal(err)
		}
		s, err := newEngine(Config{Schedule: sc.Schedule, Router: routing.NewSORN(sc),
			SlotNS: 100, PropNS: 400, Seed: 23, LatencySampleEvery: 1,
			QueueLimit: 8, Planes: 2, Workers: workers}, dense)
		if err != nil {
			t.Fatal(err)
		}
		s.StartMeasuring()
		tm := workload.Uniform(n)
		flows := sparseFlows(t, tm, 3000)
		half := len(flows) / 2
		// First half with a failed link and a failed node (their queues
		// purge, their sources leave the active set), then repair and
		// re-fail different entities so occupancy churns both ways, with
		// quiescent gaps throughout for the fast-forward to chew on.
		s.FailLink(1, 2)
		s.FailNode(5)
		if _, err := s.RunOpenLoop(flows[:half], 1500); err != nil {
			t.Fatal(err)
		}
		s.RepairNode(5)
		s.RepairLink(1, 2)
		s.FailNode(9)
		s.FailLink(3, 7)
		if _, err := s.RunOpenLoop(flows[half:], 3000); err != nil {
			t.Fatal(err)
		}
		s.RepairNode(9)
		for i := 0; i < 20000 && !s.Drained(); i++ {
			s.Step()
		}
		return s
	})
}

func TestDenseActiveEquivalenceReconfigure(t *testing.T) {
	runDenseActive(t, func(t *testing.T, dense bool, workers int) *Sim {
		n := 24
		sc, err := schedule.BuildSORN(schedule.SORNConfig{N: n, Nc: 4, Q: 2})
		if err != nil {
			t.Fatal(err)
		}
		s, err := newEngine(Config{Schedule: sc.Schedule, Router: routing.NewSORN(sc),
			SlotNS: 100, PropNS: 300, Seed: 31, LatencySampleEvery: 2,
			Workers: workers}, dense)
		if err != nil {
			t.Fatal(err)
		}
		s.StartMeasuring()
		tm := workload.Uniform(n)
		rest, err := s.RunOpenLoop(sparseFlows(t, tm, 2000), 1000)
		if err != nil {
			t.Fatal(err)
		}
		// Swap the fabric with cells queued and in flight: the active set
		// rebuilds from surviving backlog, and the new circuit set routes
		// the flows arriving from slot 1000 on.
		sc2, err := schedule.BuildSORN(schedule.SORNConfig{N: n, Nc: 3, Q: 1.5})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Reconfigure(sc2.Schedule, routing.NewSORN(sc2)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.RunOpenLoop(rest, 2000); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20000 && !s.Drained(); i++ {
			s.Step()
		}
		return s
	})
}

func TestDenseActiveEquivalenceSaturated(t *testing.T) {
	// The active engine's saturated branch (most of a shard's sources
	// backlogged: a plane-major scan over the node range) against the
	// dense reference, under both saturation modes. Queues are deep
	// enough that a slot's pops finish chunks, and a failed link and a
	// failed node between the two runs send that branch through its
	// loss path and its skip of sources missing from the active list.
	// Both runs measure from their first slot, so conservation covers
	// every cell. bigPools grows the cell pools past splitTransmitCells
	// first, so the saturated branch runs its two-pass split; otherwise
	// it runs the one-pass loop.
	for _, perPair := range []bool{false, true} {
		for _, bigPools := range []bool{false, true} {
			t.Run(fmt.Sprintf("perPair=%v/bigPools=%v", perPair, bigPools), func(t *testing.T) {
				runDenseActive(t, func(t *testing.T, dense bool, workers int) *Sim {
					n := 32
					sc, err := schedule.BuildSORN(schedule.SORNConfig{N: n, Nc: 4, Q: 2})
					if err != nil {
						t.Fatal(err)
					}
					s, err := newEngine(Config{Schedule: sc.Schedule, Router: routing.NewSORN(sc),
						SlotNS: 100, PropNS: 300, Seed: 19, LatencySampleEvery: 4,
						Planes: 2, Workers: workers}, dense)
					if err != nil {
						t.Fatal(err)
					}
					if bigPools {
						growPools(s, splitTransmitCells)
					}
					tm, err := workload.Locality(sc.Cliques, 0.5)
					if err != nil {
						t.Fatal(err)
					}
					satCfg := SaturationConfig{TM: tm, Size: workload.FixedSize(3),
						TargetBacklog: 160, MeasureSlots: 400}
					if perPair {
						satCfg.PerPairBacklog = 6
					}
					if _, err := s.RunSaturated(satCfg); err != nil {
						t.Fatal(err)
					}
					if deep := deepVOQs(s); deep < n {
						t.Fatalf("only %d VOQs hold more than two chunks; the scenario must free chunks every slot", deep)
					}
					lost := s.Stats().LostCells
					s.FailLink(1, 2)
					s.FailLink(6, 20)
					s.FailNode(5)
					if _, err := s.RunSaturated(satCfg); err != nil {
						t.Fatal(err)
					}
					if s.Stats().LostCells == lost {
						t.Fatal("no cell was lost after the failures; the transmit loss path did not run")
					}
					return s
				})
			})
		}
	}
}

// growPools grows every shard's cell pool to at least cells cells.
func growPools(s *Sim, cells int) {
	for i := range s.shards {
		for p := &s.shards[i].pool; len(p.cells) < cells; {
			p.grow()
		}
	}
}

// deepVOQs counts the queues holding more than two chunks' worth of
// cells.
func deepVOQs(s *Sim) int {
	deep := 0
	for _, row := range s.voq {
		for v := range row {
			if row[v].len() > 2*chunkCells {
				deep++
			}
		}
	}
	return deep
}

func TestDenseActiveEquivalenceResetReuse(t *testing.T) {
	// Pooled reuse across engines: a simulator dirtied under one engine
	// and Reset must be indistinguishable from a fresh simulator. Reset
	// rebuilds the active set from scratch and clears the reference
	// hook, so a dense-dirtied sim comes back on the active engine, and
	// an active-dirtied one switched to dense after Reset matches a
	// fresh dense sim.
	for _, towardsDense := range []bool{false, true} {
		t.Run(fmt.Sprintf("toDense=%v", towardsDense), func(t *testing.T) {
			cfg := sornResetConfig(t, 1)
			fresh, err := newEngine(cfg, towardsDense)
			if err != nil {
				t.Fatal(err)
			}
			runSaturatedTarget(t, fresh)

			dirty := dirtySim(t, 1, !towardsDense)
			if err := dirty.Reset(cfg); err != nil {
				t.Fatal(err)
			}
			if dirty.reference != nil {
				t.Fatal("Reset kept the reference engine hook")
			}
			useDense(dirty, towardsDense)
			runSaturatedTarget(t, dirty)
			compareSims(t, fresh, dirty)
		})
	}
}

func TestDenseActiveObsSeriesEquivalence(t *testing.T) {
	// Full telemetry equivalence under fast-forward: a non-power-of-two
	// snapshot cadence (the mask fast path does not apply), quiescent
	// stretches crossing many snapshot boundaries, and fault events
	// landing inside them. The dense run records its series by stepping
	// every slot; the active run must produce the identical rows and
	// trace while skipping most of those slots.
	run := func(dense bool) (*Sim, *obs.Observer) {
		sc, err := schedule.BuildSORN(schedule.SORNConfig{N: 32, Nc: 4, Q: 2})
		if err != nil {
			t.Fatal(err)
		}
		ob := obs.New(obs.Options{MetricsEvery: 7, TraceFlows: true})
		ob.StartRun("equiv")
		s, err := newEngine(Config{Schedule: sc.Schedule, Router: routing.NewSORN(sc),
			SlotNS: 100, PropNS: 500, Seed: 41, LatencySampleEvery: 2,
			Obs: ob}, dense)
		if err != nil {
			t.Fatal(err)
		}
		s.StartMeasuring()
		tm, err := workload.Locality(sc.Cliques, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		rest, err := s.RunOpenLoop(sparseFlows(t, tm, 2000), 1200)
		if err != nil {
			t.Fatal(err)
		}
		s.FailNode(3)
		if _, err := s.RunOpenLoop(rest, 2600); err != nil {
			t.Fatal(err)
		}
		s.RepairNode(3)
		if _, err := s.RunOpenLoop(nil, 3500); err != nil {
			t.Fatal(err)
		}
		return s, ob
	}
	ds, dob := run(true)
	as, aob := run(false)
	compareSims(t, ds, as)
	obsEqual(t, dob, aob)
}

func TestFastForwardToExactness(t *testing.T) {
	// The unit-level contract behind the equivalence above: on a
	// quiescent simulator, FastForwardTo(target) leaves every observable
	// — slot, Stats, metric series — exactly where stepping slot by slot
	// to target would. The stepped twin here is an active-engine sim too,
	// so this isolates the fast-forward path from the engine difference.
	run := func(ff bool) (*Sim, *obs.Observer) {
		sc, err := schedule.BuildSORN(schedule.SORNConfig{N: 16, Nc: 4, Q: 2})
		if err != nil {
			t.Fatal(err)
		}
		ob := obs.New(obs.Options{MetricsEvery: 5})
		s, err := New(Config{Schedule: sc.Schedule, Router: routing.NewSORN(sc),
			SlotNS: 100, PropNS: 300, Seed: 3, LatencySampleEvery: 1, Obs: ob})
		if err != nil {
			t.Fatal(err)
		}
		s.StartMeasuring()
		// A little traffic first, fully drained, so the counters are
		// non-zero when the quiescent stretch begins.
		s.InjectFlow(0, 5, 4)
		s.InjectFlow(7, 2, 3)
		for i := 0; i < 20000 && !s.Drained(); i++ {
			s.Step()
		}
		start := s.Slot()
		target := start + 137 // crosses many 5-slot snapshot boundaries
		if ff {
			if got := s.FastForwardTo(target); got != target-start {
				t.Fatalf("FastForwardTo skipped %d slots, want %d", got, target-start)
			}
		} else {
			for s.Slot() < target {
				s.Step()
			}
		}
		return s, ob
	}
	stepped, sob := run(false)
	ffed, fob := run(true)
	compareSims(t, stepped, ffed)
	obsEqual(t, sob, fob)
}

func TestFastForwardToNoOps(t *testing.T) {
	sc, err := schedule.BuildSORN(schedule.SORNConfig{N: 16, Nc: 4, Q: 2})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(dense bool) *Sim {
		s, err := newEngine(Config{Schedule: sc.Schedule, Router: routing.NewSORN(sc),
			SlotNS: 100, PropNS: 300, Seed: 3}, dense)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	if s := mk(true); s.FastForwardTo(100) != 0 || s.Slot() != 0 {
		t.Fatal("the dense reference engine must never fast-forward")
	}
	s := mk(false)
	if s.FastForwardTo(0) != 0 {
		t.Fatal("target <= slot must be a no-op")
	}
	s.InjectFlow(0, 5, 1)
	if s.FastForwardTo(100) != 0 || s.Slot() != 0 {
		t.Fatal("queued cells must block fast-forward")
	}
	s.Step() // cell takes off: backlog 0, in flight 1
	if s.Backlog() == 0 && s.InFlight() > 0 && s.FastForwardTo(100) != 0 {
		t.Fatal("in-flight cells must block fast-forward")
	}
	for i := 0; i < 100 && !s.Drained(); i++ {
		s.Step()
	}
	pre := s.Slot()
	if got := s.FastForwardTo(pre + 50); got != 50 || s.Slot() != pre+50 {
		t.Fatalf("drained fast-forward: skipped %d to slot %d", got, s.Slot())
	}
}

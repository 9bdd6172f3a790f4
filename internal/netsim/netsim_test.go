package netsim

import (
	"flag"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/fluid"
	"repro/internal/matching"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/schedule"
	"repro/internal/workload"
)

// benchObs attaches an Observer to the saturated benchmarks so ci.sh
// can measure the observability layer's hot-path overhead on one
// machine: the same benchmark runs with and without -benchobs and the
// two ns/op readings are compared (cross-machine ledger numbers are not
// comparable; same-machine A/B is). The gate uses InjectSaturated — a
// full loaded slot, injection through delivery — because a drained
// network's idle steps make a fixed per-slot hook look artificially
// large. Default options: the always-on layer (metrics, sampled phase
// timing, rare events); per-flow tracing is opt-in and priced
// separately (see obs.Options.TraceFlows).
var benchObs = flag.Bool("benchobs", false, "attach an Observer in the saturated benchmarks (obs overhead gate)")

// benchDense runs the benchmarks on the test-only dense reference engine
// (dense_test.go) instead of the production active-set engine, for
// same-machine A/B comparisons (ci.sh's active-engine gate, and the
// OpenLoopSparse speedup the ledger tracks). Results are bit-identical
// either way — only the per-slot iteration strategy differs.
var benchDense = flag.Bool("benchdense", false, "run benchmarks on the dense reference engine (dense-vs-active A/B gate)")

func newSim(t *testing.T, sched *matching.Schedule, router routing.Router, seed uint64) *Sim {
	t.Helper()
	s, err := New(Config{Schedule: sched, Router: router, SlotNS: 100, PropNS: 500, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSingleCellDeterministicLatency(t *testing.T) {
	// Round robin over 8 nodes, direct routing. Node 0's circuit to node
	// 3 opens at slot 2 (shift 3); propagation is 5 slots; so a cell
	// injected at slot 0 completes at slot 7.
	sched := matching.RoundRobin(8)
	d, err := routing.NewDirect(sched)
	if err != nil {
		t.Fatal(err)
	}
	s := newSim(t, sched, d, 1)
	s.StartMeasuring()
	f := s.InjectFlow(0, 3, 1)
	for i := 0; i < 20 && !f.Done(); i++ {
		s.Step()
	}
	if !f.Done() {
		t.Fatal("flow did not complete")
	}
	if got := f.CompletionSlots(); got != 7 {
		t.Fatalf("completion = %d slots, want 7 (2 wait + 5 prop)", got)
	}
	if f.Delivered() != 1 {
		t.Fatalf("delivered = %d", f.Delivered())
	}
}

func TestCellConservation(t *testing.T) {
	sched := matching.RoundRobin(16)
	v, _ := routing.NewVLB(sched)
	s := newSim(t, sched, v, 2)
	s.StartMeasuring()
	gen, err := workload.NewPoissonFlows(workload.Uniform(16), workload.FixedSize(4), 0.2, 3)
	if err != nil {
		t.Fatal(err)
	}
	flows := gen.Window(0, 2000)
	if _, err := s.RunOpenLoop(flows, 2000); err != nil {
		t.Fatal(err)
	}
	// Drain: inject nothing more, run until nothing is queued or in flight.
	for i := 0; i < 100000 && !s.Drained(); i++ {
		s.Step()
	}
	st := s.Stats()
	if st.DeliveredCells != st.InjectedCells {
		t.Fatalf("conservation violated: injected %d delivered %d backlog %d",
			st.InjectedCells, st.DeliveredCells, s.Backlog())
	}
	if s.FlowsCompleted() != len(flows) {
		t.Fatalf("%d of %d flows completed", s.FlowsCompleted(), len(flows))
	}
	if int64(s.FlowsCompleted()) != st.CompletedFlows {
		t.Fatal("completed-flow counters disagree")
	}
}

// TestRunSaturatedConfigErrorNamesField: an invalid saturation config
// is reported by field name and value, not as a formatted struct (whose
// pointer fields print as heap addresses that change between runs), so
// the message holds no "0x" and is the same on every call.
func TestRunSaturatedConfigErrorNamesField(t *testing.T) {
	const n = 16
	sched := matching.RoundRobin(n)
	v, _ := routing.NewVLB(sched)
	valid := SaturationConfig{TM: workload.Uniform(n), Size: workload.FixedSize(4),
		TargetBacklog: 8, WarmupSlots: 10, MeasureSlots: 10}
	for _, tc := range []struct {
		field string
		edit  func(*SaturationConfig)
	}{
		{"TargetBacklog 0 and PerPairBacklog 0", func(c *SaturationConfig) { c.TargetBacklog = 0 }},
		{"WarmupSlots -1", func(c *SaturationConfig) { c.WarmupSlots = -1 }},
		{"MeasureSlots 0", func(c *SaturationConfig) { c.MeasureSlots = 0 }},
	} {
		sc := valid
		tc.edit(&sc)
		var msgs [2]string
		for i := range msgs {
			_, err := newSim(t, sched, v, 1).RunSaturated(sc)
			if err == nil {
				t.Fatalf("%s: accepted", tc.field)
			}
			msgs[i] = err.Error()
		}
		if !strings.Contains(msgs[0], tc.field) || strings.Contains(msgs[0], "0x") || msgs[0] != msgs[1] {
			t.Errorf("%s: errors %q and %q, want the field named, no address, the same twice", tc.field, msgs[0], msgs[1])
		}
	}
}

func TestSaturatedThroughputVLB(t *testing.T) {
	// Saturated VLB over a 16-node round robin should deliver close to
	// the fluid bound (n−1)/(2n−3) ≈ 0.517 cells/node/slot.
	n := 16
	sched := matching.RoundRobin(n)
	v, _ := routing.NewVLB(sched)
	s := newSim(t, sched, v, 4)
	st, err := s.RunSaturated(SaturationConfig{
		TM:            workload.Uniform(n),
		Size:          workload.FixedSize(4),
		TargetBacklog: 128,
		WarmupSlots:   3000,
		MeasureSlots:  8000,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := float64(n-1) / float64(2*n-3)
	got := st.Throughput(n)
	if math.Abs(got-want) > 0.05 {
		t.Fatalf("saturated VLB throughput = %f, want ~%f", got, want)
	}
	// Mean hops just under 2 (direct with prob 1/(n−1)).
	if mh := st.MeanHops(); math.Abs(mh-(2-1.0/float64(n-1))) > 0.1 {
		t.Fatalf("mean hops = %f", mh)
	}
}

func TestSaturatedThroughputDirectUniform(t *testing.T) {
	// Direct routing on uniform traffic keeps every circuit busy: r → 1.
	n := 8
	sched := matching.RoundRobin(n)
	d, _ := routing.NewDirect(sched)
	s := newSim(t, sched, d, 5)
	st, err := s.RunSaturated(SaturationConfig{
		TM:            workload.Uniform(n),
		Size:          workload.FixedSize(2),
		TargetBacklog: 256,
		WarmupSlots:   2000,
		MeasureSlots:  6000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Throughput(n); got < 0.9 {
		t.Fatalf("direct uniform throughput = %f, want ~1", got)
	}
}

func TestSaturatedSORNMatchesFluid(t *testing.T) {
	// The simulator's measured saturation throughput must track the
	// fluid solver's θ for a SORN design point.
	const n, nc, x = 64, 8, 0.5
	built, err := schedule.BuildSORN(schedule.SORNConfig{N: n, Nc: nc, Q: model.SORNQ(x)})
	if err != nil {
		t.Fatal(err)
	}
	router := routing.NewSORN(built)
	tm, err := workload.Locality(built.Cliques, x)
	if err != nil {
		t.Fatal(err)
	}
	fl, err := fluid.Solve(built.Schedule, router, tm)
	if err != nil {
		t.Fatal(err)
	}
	s := newSim(t, built.Schedule, router, 6)
	st, err := s.RunSaturated(SaturationConfig{
		TM:            tm,
		Size:          workload.FixedSize(8),
		TargetBacklog: 256,
		WarmupSlots:   5000,
		MeasureSlots:  15000,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := st.Throughput(n)
	if math.Abs(got-fl.Theta)/fl.Theta > 0.12 {
		t.Fatalf("simulated r = %f, fluid θ = %f", got, fl.Theta)
	}
}

func TestFailLinkLosesCells(t *testing.T) {
	sched := matching.RoundRobin(8)
	d, _ := routing.NewDirect(sched)
	s := newSim(t, sched, d, 7)
	s.StartMeasuring()
	s.FailLink(0, 3)
	f := s.InjectFlow(0, 3, 5)
	for i := 0; i < 200; i++ {
		s.Step()
	}
	if f.Done() || f.Delivered() != 0 {
		t.Fatalf("flow over failed link delivered %d cells", f.Delivered())
	}
	// Other traffic unaffected.
	g := s.InjectFlow(1, 4, 5)
	for i := 0; i < 200 && !g.Done(); i++ {
		s.Step()
	}
	if !g.Done() {
		t.Fatal("unrelated flow blocked by failed link")
	}
}

func TestFailNodeStopsForwarding(t *testing.T) {
	sched := matching.RoundRobin(8)
	v, _ := routing.NewVLB(sched)
	s := newSim(t, sched, v, 8)
	s.StartMeasuring()
	s.FailNode(2)
	// Node 2 cannot source traffic.
	f := s.InjectFlow(2, 5, 3)
	for i := 0; i < 300; i++ {
		s.Step()
	}
	if f.Done() {
		t.Fatal("failed node completed a flow")
	}
}

func TestLatencySampling(t *testing.T) {
	sched := matching.RoundRobin(8)
	d, _ := routing.NewDirect(sched)
	s, err := New(Config{Schedule: sched, Router: d, SlotNS: 100, PropNS: 500, Seed: 9, LatencySampleEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.StartMeasuring()
	for i := 0; i < 10; i++ {
		s.InjectFlow(i%8, (i+3)%8, 2)
	}
	for i := 0; i < 500; i++ {
		s.Step()
	}
	st := s.Stats()
	if st.LatencySlots.Count() == 0 {
		t.Fatal("no latency samples recorded")
	}
	// Every latency includes at least the propagation delay (5 slots).
	if st.LatencySlots.Percentile(0) < 5 {
		t.Fatalf("min latency %f below propagation", st.LatencySlots.Percentile(0))
	}
	if st.FCTSlots.Count() == 0 {
		t.Fatal("no FCT samples recorded")
	}
}

func TestReconfigureDrainsAndCompletes(t *testing.T) {
	// Inject under one clique structure, reconfigure to another, and
	// verify every flow still completes (stranded cells are re-routed).
	a, err := schedule.BuildSORN(schedule.SORNConfig{N: 16, Nc: 2, Q: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := schedule.BuildSORN(schedule.SORNConfig{N: 16, Nc: 4, Q: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := newSim(t, a.Schedule, routing.NewSORN(a), 10)
	s.StartMeasuring()
	var flows []*FlowState
	for i := 0; i < 16; i++ {
		flows = append(flows, s.InjectFlow(i, (i+5)%16, 20))
	}
	for i := 0; i < 10; i++ {
		s.Step()
	}
	if err := s.Reconfigure(b.Schedule, routing.NewSORN(b)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20000 && !s.Drained(); i++ {
		s.Step()
	}
	for i, f := range flows {
		if !f.Done() {
			t.Fatalf("flow %d stranded after reconfiguration (delivered %d/20)", i, f.Delivered())
		}
	}
}

// TestReconfigureReusesDrainedVOQ: Reconfigure drains every queue of
// the table it replaces, keeps that table, and swaps it back in on the
// next call, so alternating between two schedules allocates no VOQ
// table after the first swap. Traffic still drains and conserves.
func TestReconfigureReusesDrainedVOQ(t *testing.T) {
	a, err := schedule.BuildSORN(schedule.SORNConfig{N: 16, Nc: 2, Q: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := schedule.BuildSORN(schedule.SORNConfig{N: 16, Nc: 4, Q: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := newSim(t, a.Schedule, routing.NewSORN(a), 12)
	s.StartMeasuring()
	tables := map[*fifo]bool{}
	for round := 0; round < 6; round++ {
		for i := 0; i < 16; i++ {
			s.InjectFlow(i, (i+3+round)%16, 6)
		}
		for i := 0; i < 5; i++ {
			s.Step()
		}
		next := a
		if round%2 == 0 {
			next = b
		}
		if err := s.Reconfigure(next.Schedule, routing.NewSORN(next)); err != nil {
			t.Fatal(err)
		}
		tables[&s.voq[0][0]] = true
		for _, row := range s.spareVOQ {
			for v := range row {
				if row[v] != (fifo{}) {
					t.Fatalf("round %d: the spare table's queue %d holds %d cells", round, v, row[v].len())
				}
			}
		}
		checkConservation(t, s)
	}
	if len(tables) != 2 {
		t.Fatalf("six reconfigurations used %d VOQ tables, want the first and one spare", len(tables))
	}
	for i := 0; i < 20000 && !s.Drained(); i++ {
		s.Step()
	}
	checkConservation(t, s)
	if st := s.Stats(); st.DeliveredCells != st.InjectedCells {
		t.Fatalf("delivered %d of %d cells", st.DeliveredCells, st.InjectedCells)
	}
}

func TestReconfigureRejectsMismatchedSchedule(t *testing.T) {
	sched := matching.RoundRobin(8)
	v, _ := routing.NewVLB(sched)
	s := newSim(t, sched, v, 11)
	other := matching.RoundRobin(4)
	ov, _ := routing.NewVLB(other)
	if err := s.Reconfigure(other, ov); err == nil {
		t.Fatal("mismatched reconfiguration accepted")
	}
}

func TestNewValidation(t *testing.T) {
	sched := matching.RoundRobin(8)
	v, _ := routing.NewVLB(sched)
	if _, err := New(Config{Router: v}); err == nil {
		t.Error("missing schedule accepted")
	}
	if _, err := New(Config{Schedule: sched}); err == nil {
		t.Error("missing router accepted")
	}
	if _, err := New(Config{Schedule: sched, Router: v, PropNS: -1}); err == nil {
		t.Error("negative propagation accepted")
	}
	if _, err := New(Config{Schedule: sched, Router: v, SlotNS: -1}); err == nil {
		t.Error("negative slot duration accepted")
	}
}

func TestRunSaturatedValidation(t *testing.T) {
	sched := matching.RoundRobin(8)
	v, _ := routing.NewVLB(sched)
	s := newSim(t, sched, v, 12)
	if _, err := s.RunSaturated(SaturationConfig{TM: workload.Uniform(4), Size: workload.FixedSize(1), TargetBacklog: 1, MeasureSlots: 1}); err == nil {
		t.Error("size mismatch accepted")
	}
	if _, err := s.RunSaturated(SaturationConfig{TM: workload.Uniform(8), Size: workload.FixedSize(1), TargetBacklog: 0, MeasureSlots: 1}); err == nil {
		t.Error("zero backlog accepted")
	}
}

// TestRunOpenLoopRejectsBadFlows: a flow InjectFlow cannot carry, or one
// that would be injected after its arrival slot (out of order, or before
// the current slot), is an error, not a panic, a flow that silently
// never completes or a silently shortened FCT, and it is caught before
// anything is injected.
func TestRunOpenLoopRejectsBadFlows(t *testing.T) {
	good := workload.Flow{ID: 1, Src: 0, Dst: 3, Size: 2, Arrival: 60}
	for _, tc := range []struct {
		name  string
		bad   workload.Flow
		start int64 // slot the simulator is stepped to first
	}{
		{"dst-out-of-range", workload.Flow{ID: 2, Src: 1, Dst: 9, Size: 1, Arrival: 61}, 0},
		{"dst-negative", workload.Flow{ID: 2, Src: 1, Dst: -1, Size: 1, Arrival: 61}, 0},
		{"src-out-of-range", workload.Flow{ID: 2, Src: 8, Dst: 1, Size: 1, Arrival: 61}, 0},
		{"self-flow", workload.Flow{ID: 2, Src: 4, Dst: 4, Size: 1, Arrival: 61}, 0},
		{"negative-size", workload.Flow{ID: 2, Src: 1, Dst: 2, Size: -3, Arrival: 61}, 0},
		{"empty", workload.Flow{ID: 2, Src: 1, Dst: 2, Size: 0, Arrival: 61}, 0},
		{"negative-arrival", workload.Flow{ID: 2, Src: 1, Dst: 2, Size: 1, Arrival: -1}, 0},
		{"out-of-order", workload.Flow{ID: 2, Src: 1, Dst: 2, Size: 1, Arrival: 59}, 0},
		{"before-current-slot", workload.Flow{ID: 2, Src: 1, Dst: 2, Size: 1, Arrival: 59}, 60},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panicked instead of returning an error: %v", r)
				}
			}()
			sched := matching.RoundRobin(8)
			d, _ := routing.NewDirect(sched)
			s := newSim(t, sched, d, 1)
			if _, err := s.RunOpenLoop(nil, tc.start); err != nil {
				t.Fatal(err)
			}
			s.StartMeasuring()
			if _, err := s.RunOpenLoop([]workload.Flow{good, tc.bad}, 100); err == nil {
				t.Fatal("bad flow accepted")
			}
			if s.Slot() != tc.start || s.Stats().InjectedCells != 0 || s.Backlog() != 0 {
				t.Fatalf("rejected run moved the simulator: slot %d, injected %d, backlog %d",
					s.Slot(), s.Stats().InjectedCells, s.Backlog())
			}
		})
	}
}

// TestRunSaturatedRejectsEmptySizes: the top-up loops inject until a
// fresh backlog target is met, so a size distribution that samples 0
// cells must end the run with an error instead of looping forever.
func TestRunSaturatedRejectsEmptySizes(t *testing.T) {
	for _, perPair := range []bool{false, true} {
		t.Run(fmt.Sprintf("perPair=%v", perPair), func(t *testing.T) {
			sched := matching.RoundRobin(8)
			v, _ := routing.NewVLB(sched)
			s := newSim(t, sched, v, 12)
			sc := SaturationConfig{TM: workload.Uniform(8), Size: workload.FixedSize(0),
				TargetBacklog: 16, WarmupSlots: 10, MeasureSlots: 10}
			if perPair {
				sc.PerPairBacklog = 4
			}
			done := make(chan error, 1)
			go func() {
				_, err := s.RunSaturated(sc)
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil {
					t.Fatal("zero-cell size distribution accepted")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("RunSaturated still topping up empty flows after 5 s")
			}
		})
	}
}

// TestRunSaturatedRejectsQueueLimit: a full VOQ drops the fresh cells a
// top-up just injected, so with a QueueLimit below the backlog target
// the top-up loops would never reach it. The run must be refused with
// an error instead of spinning.
func TestRunSaturatedRejectsQueueLimit(t *testing.T) {
	for _, perPair := range []bool{false, true} {
		t.Run(fmt.Sprintf("perPair=%v", perPair), func(t *testing.T) {
			sched := matching.RoundRobin(8)
			d, _ := routing.NewDirect(sched)
			s, err := New(Config{Schedule: sched, Router: d, Seed: 12, QueueLimit: 4})
			if err != nil {
				t.Fatal(err)
			}
			sc := SaturationConfig{TM: workload.Uniform(8), Size: workload.FixedSize(1),
				TargetBacklog: 64, WarmupSlots: 10, MeasureSlots: 10}
			if perPair {
				sc.PerPairBacklog = 8
			}
			done := make(chan error, 1)
			go func() {
				_, err := s.RunSaturated(sc)
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil {
					t.Fatal("saturation run with QueueLimit accepted")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("RunSaturated still topping up into full queues after 5 s")
			}
			if s.Slot() != 0 || s.Backlog() != 0 {
				t.Fatalf("refused run stepped to slot %d with backlog %d", s.Slot(), s.Backlog())
			}
		})
	}
}

func TestOpenLoopLowLoadLatency(t *testing.T) {
	// At 10% load the network is uncongested: mean cell latency should be
	// within a small factor of the intrinsic bound (schedule wait + prop).
	n := 16
	sched := matching.RoundRobin(n)
	v, _ := routing.NewVLB(sched)
	s, err := New(Config{Schedule: sched, Router: v, SlotNS: 100, PropNS: 500, Seed: 13, LatencySampleEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.StartMeasuring()
	gen, _ := workload.NewPoissonFlows(workload.Uniform(n), workload.FixedSize(1), 0.1, 14)
	flows := gen.Window(0, 5000)
	if _, err := s.RunOpenLoop(flows, 6000); err != nil {
		t.Fatal(err)
	}
	mean := s.Stats().LatencySlots.Mean()
	// Intrinsic: ~(n−1)/2 expected wait per directed hop ×2 + 2×5 prop.
	intrinsic := float64(n-1) + 10
	if mean > 2.5*intrinsic || mean < 5 {
		t.Fatalf("low-load mean latency %f slots vs intrinsic ~%f", mean, intrinsic)
	}
}

func BenchmarkStepSaturated(b *testing.B) {
	built, err := schedule.BuildSORN(schedule.SORNConfig{N: 128, Nc: 8, Q: 4.5})
	if err != nil {
		b.Fatal(err)
	}
	router := routing.NewSORN(built)
	var ob *obs.Observer
	if *benchObs {
		ob = obs.New(obs.Options{})
	}
	s, err := newEngine(Config{Schedule: built.Schedule, Router: router, SlotNS: 100, PropNS: 500, Seed: 1, Obs: ob}, *benchDense)
	if err != nil {
		b.Fatal(err)
	}
	tm, _ := workload.Locality(built.Cliques, 0.56)
	// Prime the backlog.
	if _, err := s.RunSaturated(SaturationConfig{TM: tm, Size: workload.FixedSize(8), TargetBacklog: 64, WarmupSlots: 0, MeasureSlots: 100}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// BenchmarkStepSaturatedFull times Step with the backlog held at the
// saturation target: the injection top-up runs with the timer stopped
// every 32 slots, so every timed Step transmits and lands a full
// slot's worth of cells — the active-set engine's worst case, where
// every source is active and the incremental tracking is pure
// overhead. The RNG- and allocation-heavy injection path is identical
// code on both engines and jittery enough on a shared host to drown a
// 5% A/B budget, so it stays outside the timed region (contrast
// BenchmarkInjectSaturated, which prices the whole slot including
// injection). Run with -benchdense for the dense-engine baseline.
func BenchmarkStepSaturatedFull(b *testing.B) {
	built, err := schedule.BuildSORN(schedule.SORNConfig{N: 128, Nc: 8, Q: 4.5})
	if err != nil {
		b.Fatal(err)
	}
	router := routing.NewSORN(built)
	s, err := newEngine(Config{Schedule: built.Schedule, Router: router, SlotNS: 100, PropNS: 500, Seed: 1}, *benchDense)
	if err != nil {
		b.Fatal(err)
	}
	tm, _ := workload.Locality(built.Cliques, 0.56)
	size := workload.FixedSize(8)
	if _, err := s.RunSaturated(SaturationConfig{TM: tm, Size: size, TargetBacklog: 64, WarmupSlots: 0, MeasureSlots: 100}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%32 == 0 {
			b.StopTimer()
			for u := 0; u < s.n; u++ {
				for s.fresh[u] < 64 {
					s.InjectFlow(u, tm.SampleDest(u, s.rng), size.Sample(s.rng))
				}
			}
			b.StartTimer()
		}
		s.Step()
	}
}

func TestPlanesScaleBandwidth(t *testing.T) {
	// With P planes, a saturated node delivers P cells/slot of raw
	// bandwidth; Throughput() normalizes back to a fraction, so the
	// measured r should match the single-plane value.
	n := 16
	sched := matching.RoundRobin(n)
	for _, planes := range []int{1, 4} {
		d, _ := routing.NewDirect(sched)
		s, err := New(Config{Schedule: sched, Router: d, SlotNS: 100, PropNS: 500, Seed: 4, Planes: planes})
		if err != nil {
			t.Fatal(err)
		}
		st, err := s.RunSaturated(SaturationConfig{
			TM: workload.Uniform(n), Size: workload.FixedSize(2),
			TargetBacklog: 512, WarmupSlots: 2000, MeasureSlots: 4000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := st.Throughput(n); got < 0.9 {
			t.Fatalf("planes=%d throughput %f, want ~1", planes, got)
		}
		// Raw deliveries must scale with planes.
		raw := float64(st.DeliveredCells) / float64(st.MeasuredSlots) / float64(n)
		if raw < 0.9*float64(planes) {
			t.Fatalf("planes=%d raw rate %f, want ~%d", planes, raw, planes)
		}
	}
}

func TestPlanesReduceLatency(t *testing.T) {
	// Phase-staggered planes divide the wait for a given circuit by the
	// plane count — the /uplinks term of the paper's latency model.
	n := 64
	sched := matching.RoundRobin(n)
	waits := map[int]float64{}
	for _, planes := range []int{1, 8} {
		d, _ := routing.NewDirect(sched)
		s, err := New(Config{
			Schedule: sched, Router: d, SlotNS: 100, PropNS: 500,
			Seed: 5, Planes: planes, LatencySampleEvery: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		s.StartMeasuring()
		gen, _ := workload.NewPoissonFlows(workload.Uniform(n), workload.FixedSize(1), 0.02, 6)
		flows := gen.Window(0, 20000)
		if _, err := s.RunOpenLoop(flows, 21000); err != nil {
			t.Fatal(err)
		}
		waits[planes] = s.Stats().LatencySlots.Mean()
	}
	// Mean latency = schedule wait (~(n-1)/2 for 1 plane) + 5 prop slots.
	// 8 planes should cut the schedule-wait component by ~8.
	want1 := float64(n-1)/2 + 5
	if waits[1] < 0.7*want1 || waits[1] > 1.5*want1 {
		t.Fatalf("1-plane mean latency %f, want ~%f", waits[1], want1)
	}
	if waits[8] > waits[1]/3 {
		t.Fatalf("8 planes did not cut latency: %f vs %f", waits[8], waits[1])
	}
}

func TestPlanesInvalid(t *testing.T) {
	sched := matching.RoundRobin(8)
	v, _ := routing.NewVLB(sched)
	if _, err := New(Config{Schedule: sched, Router: v, Planes: -1}); err == nil {
		t.Fatal("negative planes accepted")
	}
}

func TestNoDuplicationOrLossProperty(t *testing.T) {
	// Random small workloads over random SORN configs: after draining,
	// every flow has delivered exactly its size — no duplication, no
	// silent loss — and the aggregate counters agree.
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		nc := 2 + r.Intn(3)
		k := 2 + r.Intn(4)
		n := nc * k
		built, err := schedule.BuildSORN(schedule.SORNConfig{N: n, Nc: nc, Q: 0.5 + 4*r.Float64()})
		if err != nil {
			return false
		}
		s, err := New(Config{
			Schedule: built.Schedule, Router: routing.NewSORN(built),
			SlotNS: 100, PropNS: int64(r.Intn(900)), Seed: seed,
			Planes: 1 + r.Intn(3),
		})
		if err != nil {
			return false
		}
		s.StartMeasuring()
		var total int64
		nflows := 1 + r.Intn(20)
		for i := 0; i < nflows; i++ {
			src := r.Intn(n)
			dst := r.Intn(n)
			if dst == src {
				dst = (src + 1) % n
			}
			size := 1 + r.Intn(30)
			s.InjectFlow(src, dst, size)
			total += int64(size)
			if r.Intn(3) == 0 {
				s.Step()
			}
		}
		for i := 0; i < 200000 && !s.Drained(); i++ {
			s.Step()
		}
		if !s.Drained() {
			return false
		}
		// Settled slots are reused, so the flows are checked through the
		// arena: every slot settled exactly once with delivered + lost ==
		// size, every flow completed, nothing lost.
		st := s.Stats()
		return checkFlowSlots(s) == nil && st.CompletedFlows == int64(nflows) && st.LostCells == 0 &&
			st.DeliveredCells == total && st.InjectedCells == total
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestDirectFlowDeliversInFIFOOrder(t *testing.T) {
	// A single-path flow (direct routing) must complete exactly when its
	// last cell's circuit occurs: size cells each need one occurrence of
	// the same circuit, one per period.
	sched := matching.RoundRobin(8)
	d, _ := routing.NewDirect(sched)
	s := newSim(t, sched, d, 20)
	s.StartMeasuring()
	const size = 5
	f := s.InjectFlow(0, 3, size)
	for i := 0; i < 500 && !f.Done(); i++ {
		s.Step()
	}
	// Circuit 0->3 opens at slot 2, then every 7 slots; the 5th cell
	// transmits at slot 2+4*7=30 and lands 5 slots later.
	if got := f.CompletionSlots(); got != 35 {
		t.Fatalf("FIFO drain completion = %d, want 35", got)
	}
}

func TestOperaBulkShapeVsSORN(t *testing.T) {
	// Table 1's Opera-bulk row, in simulation shape: VLB over a slowly
	// rotating schedule (Opera-like epochs) completes a bulk flow orders
	// of magnitude slower than SORN at the same slot length, because the
	// direct circuit to the destination recurs only once per rotation.
	if testing.Short() {
		t.Skip("long drain")
	}
	opera, err := schedule.BuildOperaLike(32, 64)
	if err != nil {
		t.Fatal(err)
	}
	ov, err := routing.NewVLB(opera.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	operaSim := newSim(t, opera.Schedule, ov, 22)
	operaSim.StartMeasuring()
	of := operaSim.InjectFlow(0, 17, 20)
	for i := 0; i < 500000 && !of.Done(); i++ {
		operaSim.Step()
	}
	if !of.Done() {
		t.Fatal("opera bulk flow never completed")
	}

	sorn, err := schedule.BuildSORN(schedule.SORNConfig{N: 32, Nc: 4, Q: 3})
	if err != nil {
		t.Fatal(err)
	}
	sornSim := newSim(t, sorn.Schedule, routing.NewSORN(sorn), 22)
	sornSim.StartMeasuring()
	sf := sornSim.InjectFlow(0, 17, 20)
	for i := 0; i < 500000 && !sf.Done(); i++ {
		sornSim.Step()
	}
	if !sf.Done() {
		t.Fatal("sorn flow never completed")
	}
	if of.CompletionSlots() < 5*sf.CompletionSlots() {
		t.Fatalf("opera bulk FCT %d not far above SORN %d",
			of.CompletionSlots(), sf.CompletionSlots())
	}
}

func TestQueueLimitDropsUnderOverload(t *testing.T) {
	// Tiny queues + many flows aimed at one destination force drops, and
	// accounting must still balance: delivered + dropped == injected.
	sched := matching.RoundRobin(8)
	d, _ := routing.NewDirect(sched)
	s, err := New(Config{
		Schedule: sched, Router: d, SlotNS: 100, PropNS: 500,
		Seed: 23, QueueLimit: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.StartMeasuring()
	var flows []*FlowState
	for i := 0; i < 7; i++ {
		flows = append(flows, s.InjectFlow(i, 7, 50))
	}
	for i := 0; i < 20000 && !s.Drained(); i++ {
		s.Step()
	}
	st := s.Stats()
	if st.DroppedCells == 0 {
		t.Fatal("no drops despite 4-cell queues and 50-cell bursts")
	}
	var delivered, lost int64
	for _, f := range flows {
		delivered += int64(f.Delivered())
		lost += int64(f.Lost())
	}
	if delivered+lost != st.InjectedCells {
		t.Fatalf("accounting broken: delivered %d + lost %d != injected %d",
			delivered, lost, st.InjectedCells)
	}
	if st.DroppedCells != lost {
		t.Fatalf("drop counters disagree: %d vs %d", st.DroppedCells, lost)
	}
}

func TestQueueLimitZeroIsUnbounded(t *testing.T) {
	sched := matching.RoundRobin(8)
	d, _ := routing.NewDirect(sched)
	s, err := New(Config{Schedule: sched, Router: d, Seed: 24})
	if err != nil {
		t.Fatal(err)
	}
	s.StartMeasuring()
	f := s.InjectFlow(0, 7, 500)
	for i := 0; i < 10000 && !f.Done(); i++ {
		s.Step()
	}
	if !f.Done() || f.Lost() != 0 || s.Stats().DroppedCells != 0 {
		t.Fatal("unbounded queues dropped cells")
	}
}

// TestNegativeSampleAndQueueLimitRejected: 0 is the documented "off" for
// LatencySampleEvery and "unbounded" for QueueLimit; a negative value is
// a config error naming the field and value, from New and from Reset,
// never a silent alias for 0 and never a panic.
func TestNegativeSampleAndQueueLimitRejected(t *testing.T) {
	sched := matching.RoundRobin(8)
	d, _ := routing.NewDirect(sched)
	for _, tc := range []struct {
		want string
		edit func(*Config)
	}{
		{"LatencySampleEvery -1", func(c *Config) { c.LatencySampleEvery = -1 }},
		{"QueueLimit -4", func(c *Config) { c.QueueLimit = -4 }},
	} {
		cfg := Config{Schedule: sched, Router: d, Seed: 24}
		tc.edit(&cfg)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%s: panicked: %v", tc.want, r)
				}
			}()
			if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("New with %s: error %v, want one naming %q", tc.want, err, tc.want)
			}
			s := newSim(t, sched, d, 24)
			if err := s.Reset(cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Reset with %s: error %v, want one naming %q", tc.want, err, tc.want)
			}
		}()
	}
}

func TestReconfigureGracefulRebalanceIsDrainFree(t *testing.T) {
	// A q rebalance keeps every circuit family (fixed neighbor
	// superset), so graceful reconfiguration completes with zero drain
	// slots even under load.
	a, _ := schedule.BuildSORN(schedule.SORNConfig{N: 16, Nc: 2, Q: 1})
	b, _ := schedule.BuildSORN(schedule.SORNConfig{N: 16, Nc: 2, Q: 7})
	s := newSim(t, a.Schedule, routing.NewSORN(a), 25)
	for i := 0; i < 16; i++ {
		s.InjectFlow(i, (i+3)%16, 10)
	}
	for i := 0; i < 5; i++ {
		s.Step()
	}
	drain, rerouted, err := s.ReconfigureGraceful(b.Schedule, routing.NewSORN(b), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if drain != 0 || rerouted != 0 {
		t.Fatalf("q rebalance drained %d slots, rerouted %d cells", drain, rerouted)
	}
}

func TestReconfigureGracefulReclusterDrains(t *testing.T) {
	// Changing the clique structure removes circuits; the drain loop
	// must run for a while, and all flows still complete afterwards.
	a, _ := schedule.BuildSORN(schedule.SORNConfig{N: 16, Nc: 2, Q: 2})
	b, _ := schedule.BuildSORN(schedule.SORNConfig{N: 16, Nc: 4, Q: 2})
	s := newSim(t, a.Schedule, routing.NewSORN(a), 26)
	var flows []*FlowState
	for i := 0; i < 16; i++ {
		flows = append(flows, s.InjectFlow(i, (i+5)%16, 20))
	}
	for i := 0; i < 5; i++ {
		s.Step()
	}
	drain, _, err := s.ReconfigureGraceful(b.Schedule, routing.NewSORN(b), 100000)
	if err != nil {
		t.Fatal(err)
	}
	if drain == 0 {
		t.Fatal("re-clustering reported zero drain slots")
	}
	for i := 0; i < 200000 && !s.Drained(); i++ {
		s.Step()
	}
	for i, f := range flows {
		if !f.Done() {
			t.Fatalf("flow %d stranded after graceful reconfiguration", i)
		}
	}
}

func TestReconfigureGracefulDeadlineForcesReroute(t *testing.T) {
	// With a zero drain window, stranded cells are force-re-routed.
	a, _ := schedule.BuildSORN(schedule.SORNConfig{N: 16, Nc: 2, Q: 2})
	b, _ := schedule.BuildSORN(schedule.SORNConfig{N: 16, Nc: 4, Q: 2})
	s := newSim(t, a.Schedule, routing.NewSORN(a), 27)
	for i := 0; i < 16; i++ {
		s.InjectFlow(i, (i+5)%16, 20)
	}
	_, rerouted, err := s.ReconfigureGraceful(b.Schedule, routing.NewSORN(b), 0)
	if err != nil {
		t.Fatal(err)
	}
	if rerouted == 0 {
		t.Fatal("expected forced re-routes with a zero drain window")
	}
}

func TestReconfigureGracefulValidation(t *testing.T) {
	sched := matching.RoundRobin(8)
	v, _ := routing.NewVLB(sched)
	s := newSim(t, sched, v, 28)
	other := matching.RoundRobin(4)
	ov, _ := routing.NewVLB(other)
	if _, _, err := s.ReconfigureGraceful(other, ov, 10); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

// TestReconfigureGracefulRejectsLongRouterFirst: a graceful swap to a
// router whose routes outgrow a cell is refused before the drain loop,
// so not one slot runs under the old schedule and Stats stay as they
// were. A 16-node VLB run is handed a 4D ORN router (8 hops).
func TestReconfigureGracefulRejectsLongRouterFirst(t *testing.T) {
	o, err := schedule.BuildOptimalORN(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	long := routing.NewORN(o)
	flat := matching.RoundRobin(16)
	vlb, err := routing.NewVLB(flat)
	if err != nil {
		t.Fatal(err)
	}
	s := newSim(t, flat, vlb, 3)
	s.StartMeasuring()
	for src := 0; src < 16; src++ {
		s.InjectFlow(src, (src+5)%16, 40)
	}
	s.Step()
	slot := s.Slot()
	before := *s.Stats()
	if _, _, err := s.ReconfigureGraceful(o.Schedule, long, 50); err == nil {
		t.Fatal("ReconfigureGraceful accepted an 8-hop router")
	}
	if s.Slot() != slot {
		t.Fatalf("refused ReconfigureGraceful stepped from slot %d to %d", slot, s.Slot())
	}
	if diff, ok := before.BitIdentical(s.Stats()); !ok {
		t.Fatalf("refused ReconfigureGraceful changed Stats: %s", diff)
	}
	if _, _, err := s.ReconfigureGraceful(nil, vlb, 50); err == nil {
		t.Fatal("ReconfigureGraceful accepted a nil schedule")
	}
}

// narrowSORN is a SORN router over 16 nodes, for schedules over 32.
func narrowSORN(t *testing.T) *routing.SORN {
	t.Helper()
	built, err := schedule.BuildSORN(schedule.SORNConfig{N: 16, Nc: 4, Q: 2})
	if err != nil {
		t.Fatal(err)
	}
	return routing.NewSORN(built)
}

// TestNewRejectsNarrowRouter: a router over fewer nodes than the
// schedule is an error at New, not an index panic at the first
// injection from a node the router does not know.
func TestNewRejectsNarrowRouter(t *testing.T) {
	if _, err := New(Config{Schedule: matching.RoundRobin(32), Router: narrowSORN(t), Seed: 1}); err == nil {
		t.Fatal("New accepted a 16-node router over a 32-node schedule")
	}
}

// TestReconfigureRejectsNarrowRouter: both reconfiguration paths refuse
// a router over fewer nodes than the new schedule, before they change
// any state.
func TestReconfigureRejectsNarrowRouter(t *testing.T) {
	flat := matching.RoundRobin(32)
	vlb, err := routing.NewVLB(flat)
	if err != nil {
		t.Fatal(err)
	}
	s := newSim(t, flat, vlb, 3)
	for src := 0; src < 32; src++ {
		s.InjectFlow(src, (src+5)%32, 4)
	}
	s.Step()
	slot, before := s.Slot(), *s.Stats()
	if err := s.Reconfigure(flat, narrowSORN(t)); err == nil {
		t.Error("Reconfigure accepted a 16-node router over 32 nodes")
	}
	if _, _, err := s.ReconfigureGraceful(flat, narrowSORN(t), 50); err == nil {
		t.Error("ReconfigureGraceful accepted a 16-node router over 32 nodes")
	}
	if s.Slot() != slot {
		t.Fatalf("refused reconfigurations stepped from slot %d to %d", slot, s.Slot())
	}
	if diff, ok := before.BitIdentical(s.Stats()); !ok {
		t.Fatalf("refused reconfigurations changed Stats: %s", diff)
	}
}

func TestLatencyByHopsSeparatesClasses(t *testing.T) {
	// In a SORN under mixed traffic, 3-hop (inter-clique) cells must be
	// slower than 1-2 hop (intra-clique) cells, visible in one run.
	built, err := schedule.BuildSORN(schedule.SORNConfig{N: 32, Nc: 4, Q: 3})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Schedule: built.Schedule, Router: routing.NewSORN(built),
		SlotNS: 100, PropNS: 500, Seed: 30, LatencySampleEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.StartMeasuring()
	tm, _ := workload.Locality(built.Cliques, 0.5)
	gen, _ := workload.NewPoissonFlows(tm, workload.FixedSize(2), 0.05, 31)
	flows := gen.Window(0, 15000)
	if _, err := s.RunOpenLoop(flows, 16000); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	intra2 := &st.LatencyByHops[2]
	inter3 := &st.LatencyByHops[3]
	if intra2.Count() == 0 || inter3.Count() == 0 {
		t.Fatalf("hop classes unpopulated: 2-hop %d, 3-hop %d", intra2.Count(), inter3.Count())
	}
	if inter3.Mean() <= intra2.Mean() {
		t.Fatalf("3-hop mean %f not above 2-hop mean %f", inter3.Mean(), intra2.Mean())
	}
	// Class samples partition the overall samples.
	var total int64
	for i := range st.LatencyByHops {
		total += int64(st.LatencyByHops[i].Count())
	}
	if total != int64(st.LatencySlots.Count()) {
		t.Fatalf("class samples %d != overall %d", total, st.LatencySlots.Count())
	}
}

func TestIdleSlotsCountedWithoutBacklog(t *testing.T) {
	// Regression: IdleSlots is documented as counting node-plane-slots
	// with an active circuit but no cell queued for it, but an earlier
	// version only incremented when the node had backlog for *some*
	// circuit — a completely idle network recorded zero idle slots.
	sched := matching.RoundRobin(8)
	d, _ := routing.NewDirect(sched)
	s := newSim(t, sched, d, 40)
	s.StartMeasuring()
	for i := 0; i < 10; i++ {
		s.Step()
	}
	if got := s.Stats().IdleSlots; got != 80 {
		t.Fatalf("empty network idle slots = %d, want 8 nodes × 10 slots = 80", got)
	}
}

func TestIdleSlotsExcludeTransmissionsAndFailedNodes(t *testing.T) {
	// A transmitting node-slot is not idle, and failed nodes contribute
	// no idle slots at all.
	sched := matching.RoundRobin(8)
	d, _ := routing.NewDirect(sched)
	s := newSim(t, sched, d, 41)
	s.FailNode(5)
	s.StartMeasuring()
	s.InjectFlow(0, 3, 1) // circuit 0→3 is active at slot 2
	for i := 0; i < 10; i++ {
		s.Step()
	}
	// 7 live nodes × 10 slots, minus the one slot node 0 transmitted on.
	if got := s.Stats().IdleSlots; got != 69 {
		t.Fatalf("idle slots = %d, want 69", got)
	}
}

func TestPlaneOffsetsDistinctAndSpread(t *testing.T) {
	// With planes <= period every plane must land on a distinct phase,
	// including when the plane count does not divide the period.
	for _, tc := range []struct{ period, planes int64 }{
		{8, 3}, {7, 5}, {12, 12}, {77, 16}, {5, 4}, {8, 8},
	} {
		offs := planeOffsets(tc.period, tc.planes)
		seen := make([]bool, tc.period)
		for p, o := range offs {
			if o < 0 || o >= tc.period {
				t.Fatalf("period %d planes %d: offset[%d] = %d out of range", tc.period, tc.planes, p, o)
			}
			if seen[o] {
				t.Fatalf("period %d planes %d: offsets %v collide", tc.period, tc.planes, offs)
			}
			seen[o] = true
		}
	}
	// With planes > period distinct phases are impossible (pigeonhole);
	// the round-robin stagger must keep per-phase plane counts within
	// one of each other.
	for _, tc := range []struct{ period, planes int64 }{
		{8, 16}, {8, 12}, {3, 7}, {1, 4},
	} {
		offs := planeOffsets(tc.period, tc.planes)
		counts := make([]int64, tc.period)
		for _, o := range offs {
			counts[o]++
		}
		lo, hi := counts[0], counts[0]
		for _, c := range counts[1:] {
			if c < lo {
				lo = c
			}
			if c > hi {
				hi = c
			}
		}
		if hi-lo > 1 {
			t.Fatalf("period %d planes %d: uneven phase counts %v", tc.period, tc.planes, counts)
		}
	}
}

func TestLatencySamplingBernoulliRate(t *testing.T) {
	// k = 7 shares a factor with the 7-slot round-robin period — exactly
	// the configuration where the old every-k-th-delivery counter
	// phase-locked with the schedule. Bernoulli sampling must keep the
	// realized rate near 1/k.
	n := 8
	sched := matching.RoundRobin(n)
	d, _ := routing.NewDirect(sched)
	s, err := New(Config{Schedule: sched, Router: d, SlotNS: 100, PropNS: 500, Seed: 42, LatencySampleEvery: 7})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.RunSaturated(SaturationConfig{
		TM: workload.Uniform(n), Size: workload.FixedSize(2),
		TargetBacklog: 64, WarmupSlots: 500, MeasureSlots: 4000,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := float64(st.DeliveredCells) / 7
	got := float64(st.LatencySlots.Count())
	if math.Abs(got-want) > 0.1*want {
		t.Fatalf("sampled %0.f of %d deliveries, want ~%.0f (rate 1/7)", got, st.DeliveredCells, want)
	}
}

func TestLatencySamplingDoesNotPerturbTraffic(t *testing.T) {
	// Sampling draws from its own rng stream, so turning it on or off
	// must leave the traffic — and therefore the aggregate throughput
	// numbers — bit-for-bit unchanged.
	run := func(every int) int64 {
		n := 16
		sched := matching.RoundRobin(n)
		v, _ := routing.NewVLB(sched)
		s, err := New(Config{Schedule: sched, Router: v, SlotNS: 100, PropNS: 500, Seed: 43, LatencySampleEvery: every})
		if err != nil {
			t.Fatal(err)
		}
		st, err := s.RunSaturated(SaturationConfig{
			TM: workload.Uniform(n), Size: workload.FixedSize(4),
			TargetBacklog: 64, WarmupSlots: 500, MeasureSlots: 2000,
		})
		if err != nil {
			t.Fatal(err)
		}
		return st.DeliveredCells
	}
	if off, on := run(0), run(7); off != on {
		t.Fatalf("latency sampling perturbed traffic: %d delivered without sampling, %d with", off, on)
	}
}

// checkConservation asserts the cell-conservation invariant: every
// injected cell is exactly one of delivered, dropped (QueueLimit), lost
// (failures), queued, or in flight. Once the sim is drained every flow
// has settled, so checkFlowSlots must hold too.
func checkConservation(t *testing.T, s *Sim) {
	t.Helper()
	st := s.Stats()
	sum := st.DeliveredCells + st.DroppedCells + st.LostCells + s.Backlog() + int64(s.InFlight())
	if st.InjectedCells != sum {
		t.Fatalf("cell conservation violated: injected %d != delivered %d + dropped %d + lost %d + backlog %d + in-flight %d",
			st.InjectedCells, st.DeliveredCells, st.DroppedCells, st.LostCells, s.Backlog(), s.InFlight())
	}
	if s.Drained() {
		if err := checkFlowSlots(s); err != nil {
			t.Fatal(err)
		}
	}
}

// checkFlowSlots checks the flow arena of a drained sim: every slot
// handed out is on the free list exactly once and holds a flow with
// delivered + lost == size. A flow settled twice is on the list twice;
// a duplicated cell settles its flow early and then overshoots its size.
func checkFlowSlots(s *Sim) error {
	onList := make([]bool, s.usedFlows)
	for _, i := range s.freeFlows {
		if i < 0 || i >= s.usedFlows {
			return fmt.Errorf("free list holds slot %d, only %d handed out", i, s.usedFlows)
		}
		if onList[i] {
			return fmt.Errorf("slot %d is on the free list twice (a flow settled twice)", i)
		}
		onList[i] = true
	}
	for i, free := range onList {
		f := s.flow(int32(i))
		if !free {
			return fmt.Errorf("drained sim: slot %d (flow %d, %d->%d) never settled: delivered %d + lost %d of %d",
				i, f.id, f.src, f.dst, f.delivered, f.lost, f.size)
		}
		if f.delivered+f.lost != f.size {
			return fmt.Errorf("slot %d (flow %d, %d->%d): delivered %d + lost %d != size %d",
				i, f.id, f.src, f.dst, f.delivered, f.lost, f.size)
		}
	}
	return nil
}

func TestCellConservationQueueLimit(t *testing.T) {
	sched := matching.RoundRobin(8)
	d, _ := routing.NewDirect(sched)
	s, err := New(Config{Schedule: sched, Router: d, SlotNS: 100, PropNS: 500, Seed: 44, QueueLimit: 4})
	if err != nil {
		t.Fatal(err)
	}
	s.StartMeasuring()
	for i := 0; i < 7; i++ {
		s.InjectFlow(i, 7, 50)
	}
	for i := 0; i < 2000; i++ {
		s.Step()
		if i%100 == 0 {
			checkConservation(t, s)
		}
	}
	checkConservation(t, s)
	if s.Stats().DroppedCells == 0 {
		t.Fatal("scenario produced no drops")
	}
}

func TestCellConservationFailures(t *testing.T) {
	n := 16
	sched := matching.RoundRobin(n)
	v, _ := routing.NewVLB(sched)
	s := newSim(t, sched, v, 45)
	s.StartMeasuring()
	s.FailLink(0, 3)
	s.FailNode(9)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				s.InjectFlow(i, j, 3)
			}
		}
	}
	for i := 0; i < 3000; i++ {
		s.Step()
		if i%200 == 0 {
			checkConservation(t, s)
		}
	}
	checkConservation(t, s)
	if s.Stats().LostCells == 0 {
		t.Fatal("scenario produced no losses")
	}
}

func TestCellConservationReconfigure(t *testing.T) {
	a, _ := schedule.BuildSORN(schedule.SORNConfig{N: 16, Nc: 2, Q: 2})
	b, _ := schedule.BuildSORN(schedule.SORNConfig{N: 16, Nc: 4, Q: 2})
	s := newSim(t, a.Schedule, routing.NewSORN(a), 46)
	s.StartMeasuring()
	for i := 0; i < 16; i++ {
		s.InjectFlow(i, (i+5)%16, 20)
	}
	for i := 0; i < 10; i++ {
		s.Step()
	}
	checkConservation(t, s)
	if err := s.Reconfigure(b.Schedule, routing.NewSORN(b)); err != nil {
		t.Fatal(err)
	}
	checkConservation(t, s)
	for i := 0; i < 20000 && !s.Drained(); i++ {
		s.Step()
		if i%500 == 0 {
			checkConservation(t, s)
		}
	}
	if !s.Drained() {
		t.Fatal("did not drain after reconfiguration")
	}
	checkConservation(t, s)
}

func TestCellConservationReconfigureGraceful(t *testing.T) {
	a, _ := schedule.BuildSORN(schedule.SORNConfig{N: 16, Nc: 2, Q: 2})
	b, _ := schedule.BuildSORN(schedule.SORNConfig{N: 16, Nc: 4, Q: 2})
	s := newSim(t, a.Schedule, routing.NewSORN(a), 47)
	s.StartMeasuring()
	for i := 0; i < 16; i++ {
		s.InjectFlow(i, (i+5)%16, 20)
	}
	for i := 0; i < 5; i++ {
		s.Step()
	}
	if _, _, err := s.ReconfigureGraceful(b.Schedule, routing.NewSORN(b), 50); err != nil {
		t.Fatal(err)
	}
	checkConservation(t, s)
	for i := 0; i < 20000 && !s.Drained(); i++ {
		s.Step()
		if i%500 == 0 {
			checkConservation(t, s)
		}
	}
	if !s.Drained() {
		t.Fatal("did not drain after graceful reconfiguration")
	}
	checkConservation(t, s)
}

func TestPerPairBacklogSaturation(t *testing.T) {
	// Per-pair saturation now runs on a deficit worklist instead of an
	// O(n²)-per-slot scan; the measured throughput must still match the
	// fluid bound, conservation must hold, and identically seeded runs
	// must agree exactly.
	n := 16
	sched := matching.RoundRobin(n)
	v, _ := routing.NewVLB(sched)
	sc := SaturationConfig{
		TM: workload.Uniform(n), Size: workload.FixedSize(4),
		PerPairBacklog: 8, WarmupSlots: 2000, MeasureSlots: 6000,
	}
	s := newSim(t, sched, v, 48)
	st, err := s.RunSaturated(sc)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(n-1) / float64(2*n-3)
	if got := st.Throughput(n); math.Abs(got-want) > 0.05 {
		t.Fatalf("per-pair saturated VLB throughput = %f, want ~%f", got, want)
	}
	s2 := newSim(t, sched, v, 48)
	st2, err := s2.RunSaturated(sc)
	if err != nil {
		t.Fatal(err)
	}
	if st2.DeliveredCells != st.DeliveredCells || st2.SentCells != st.SentCells {
		t.Fatalf("per-pair saturation not deterministic: %d/%d vs %d/%d delivered/sent",
			st.DeliveredCells, st.SentCells, st2.DeliveredCells, st2.SentCells)
	}
	// Conservation needs counters live from slot 0 (warmup deliveries of
	// unmeasured injections would otherwise overcount), so check it on a
	// warmup-free run.
	s3 := newSim(t, sched, v, 48)
	sc.WarmupSlots = 0
	if _, err := s3.RunSaturated(sc); err != nil {
		t.Fatal(err)
	}
	checkConservation(t, s3)
}

func TestPerPairBacklogSkipsFailedNodes(t *testing.T) {
	// Pairs with a failed endpoint are never seeded into the worklist:
	// a failed source accumulates no fresh cells.
	n := 8
	sched := matching.RoundRobin(n)
	d, _ := routing.NewDirect(sched)
	s := newSim(t, sched, d, 49)
	s.FailNode(2)
	if _, err := s.RunSaturated(SaturationConfig{
		TM: workload.Uniform(n), Size: workload.FixedSize(2),
		PerPairBacklog: 4, WarmupSlots: 0, MeasureSlots: 500,
	}); err != nil {
		t.Fatal(err)
	}
	if s.fresh[2] != 0 {
		t.Fatalf("failed node 2 was topped up: fresh = %d", s.fresh[2])
	}
	checkConservation(t, s)
}

// BenchmarkInjectSaturated exercises the injection-side hot path —
// routing, per-cell route materialization, queue pushes — that
// BenchmarkStepSaturated's pure transmit loop leaves out: each
// iteration is one saturated slot including its top-up injections.
func BenchmarkInjectSaturated(b *testing.B) {
	built, err := schedule.BuildSORN(schedule.SORNConfig{N: 128, Nc: 8, Q: 4.5})
	if err != nil {
		b.Fatal(err)
	}
	router := routing.NewSORN(built)
	var ob *obs.Observer
	if *benchObs {
		ob = obs.New(obs.Options{})
	}
	s, err := newEngine(Config{Schedule: built.Schedule, Router: router, SlotNS: 100, PropNS: 500, Seed: 1, Obs: ob}, *benchDense)
	if err != nil {
		b.Fatal(err)
	}
	tm, _ := workload.Locality(built.Cliques, 0.56)
	size := workload.FixedSize(8)
	// Prime the backlog so every iteration does steady-state work.
	if _, err := s.RunSaturated(SaturationConfig{TM: tm, Size: size, TargetBacklog: 64, WarmupSlots: 0, MeasureSlots: 100}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for u := 0; u < s.n; u++ {
			for s.fresh[u] < 64 {
				s.InjectFlow(u, tm.SampleDest(u, s.rng), size.Sample(s.rng))
			}
		}
		s.Step()
	}
}

// BenchmarkOpenLoopSparse prices the low-load FCT-shaped regime the
// active-set engine exists for: a 128-node SORN at 0.05% offered load
// over a 205k-slot horizon, where short flows arrive every ~100 slots,
// drain within a few tens, and the fabric sits quiescent between
// bursts. The dense engine still pays an O(n·planes) transmit scan for
// every one of those slots; the active-set engine pays per active
// source and fast-forwards each quiescent gap in O(1). Run
// with -benchdense for the A/B baseline — results are bit-identical,
// only per-slot cost differs.
func BenchmarkOpenLoopSparse(b *testing.B) {
	built, err := schedule.BuildSORN(schedule.SORNConfig{N: 128, Nc: 8, Q: 4.5})
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{
		Schedule: built.Schedule, Router: routing.NewSORN(built),
		SlotNS: 100, PropNS: 500, Seed: 1,
		LatencySampleEvery: 16,
	}
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	tm, _ := workload.Locality(built.Cliques, 0.56)
	gen, err := workload.NewPoissonFlows(tm, workload.FixedSize(8), 0.0005, 7)
	if err != nil {
		b.Fatal(err)
	}
	flows := gen.Window(0, 200000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Reset(cfg); err != nil {
			b.Fatal(err)
		}
		useDense(s, *benchDense)
		s.StartMeasuring()
		if _, err := s.RunOpenLoop(flows, 205000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLargeN prices simulator construction plus a short arrival
// burst and a long drained tail at a node count the dense N² layouts
// made expensive. Allocations are as much the headline as ns/op (run
// with -benchmem): VOQ rows now allocate per occupied node (sources
// plus relay waypoints), so the per-op footprint tracks the burst's
// reach instead of unconditionally paying all 2048² virtual queues,
// and the active-set engine fast-forwards the drained tail the dense
// engine steps through slot by slot.
func BenchmarkLargeN(b *testing.B) {
	built, err := schedule.BuildSORN(schedule.SORNConfig{N: 2048, Nc: 32, Q: 4.5})
	if err != nil {
		b.Fatal(err)
	}
	router := routing.NewSORN(built)
	tm, _ := workload.Locality(built.Cliques, 0.56)
	gen, err := workload.NewPoissonFlows(tm, workload.FixedSize(16), 0.005, 7)
	if err != nil {
		b.Fatal(err)
	}
	flows := gen.Window(0, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := newEngine(Config{
			Schedule: built.Schedule, Router: router,
			SlotNS: 100, PropNS: 500, Seed: 1,
			LatencySampleEvery: 16,
		}, *benchDense)
		if err != nil {
			b.Fatal(err)
		}
		s.StartMeasuring()
		if _, err := s.RunOpenLoop(flows, 3000); err != nil {
			b.Fatal(err)
		}
	}
}

func TestReconfigureWithFreshCellsQueued(t *testing.T) {
	// Reconfigure while most injected cells are still fresh (never
	// transmitted) at their sources: re-routing must keep the
	// fresh-cell accounting consistent — fresh counters equal the
	// fresh cells actually queued, and the total still drains to zero.
	sc, err := schedule.BuildSORN(schedule.SORNConfig{N: 16, Nc: 4, Q: 2})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Schedule: sc.Schedule, Router: routing.NewSORN(sc), SlotNS: 100, PropNS: 300, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	s.StartMeasuring()
	injected := int64(0)
	r := rng.New(5)
	for i := 0; i < 60; i++ {
		src := r.Intn(16)
		dst := r.Intn(16)
		if src == dst {
			continue
		}
		size := 1 + r.Intn(6)
		s.InjectFlow(src, dst, size)
		injected += int64(size)
	}
	var totalFresh int64
	for _, f := range s.fresh {
		totalFresh += f
	}
	if totalFresh != injected {
		t.Fatalf("fresh = %d before reconfigure, want %d", totalFresh, injected)
	}
	// One step transmits a few cells; the rest reconfigure while fresh.
	s.Step()
	sc2, err := schedule.BuildSORN(schedule.SORNConfig{N: 16, Nc: 2, Q: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Reconfigure(sc2.Schedule, routing.NewSORN(sc2)); err != nil {
		t.Fatal(err)
	}
	// Fresh counters must still match the fresh cells in the queues.
	perNode := make([]int64, s.n)
	for u := 0; u < s.n; u++ {
		row := s.voq[u]
		if row == nil {
			continue
		}
		for v := range row {
			row[v].each(&s.pool, func(c *cell) {
				if c.isFresh() {
					perNode[u]++
				}
			})
		}
	}
	for u := range perNode {
		if perNode[u] != s.fresh[u] {
			t.Fatalf("node %d: fresh counter %d, %d fresh cells queued", u, s.fresh[u], perNode[u])
		}
	}
	for i := 0; i < 20000 && !s.Drained(); i++ {
		s.Step()
	}
	checkConservation(t, s)
	if got := s.Stats().DeliveredCells; got != injected {
		t.Fatalf("delivered %d of %d after reconfigure", got, injected)
	}
	for _, f := range s.fresh {
		if f != 0 {
			t.Fatalf("fresh counters nonzero after drain: %v", s.fresh)
		}
	}
}

// TestCircuitSetMatchesCompiled: the simulator's circuit set — the
// landing phase's "does the next circuit still exist" check and the
// sorted neighbor lists ReconfigureGraceful walks — must agree with
// Compiled.HasCircuit, both on the n² bitmap and, past denseCircuitMax
// nodes, on the binary-searched neighbor lists alone.
func TestCircuitSetMatchesCompiled(t *testing.T) {
	r := rng.New(77)
	shifts := func(n, k int) *matching.Schedule {
		s := &matching.Schedule{N: n}
		for ; k > 0; k-- {
			s.Slots = append(s.Slots, matching.CyclicShift(n, 1+r.Intn(n-1)))
		}
		// A repeated slot: the neighbor lists must stay distinct.
		s.Slots = append(s.Slots, s.Slots[0])
		return s
	}
	check := func(s *matching.Schedule) {
		t.Helper()
		cs := newCircuitSet(s)
		if (cs.dense != nil) != (s.N <= denseCircuitMax) {
			t.Fatalf("n=%d: bitmap present = %v, want %v", s.N, cs.dense != nil, s.N <= denseCircuitMax)
		}
		c := matching.Compile(s)
		var want []int16
		for u := 0; u < s.N; u++ {
			want = want[:0]
			for v := 0; v < s.N; v++ {
				has := c.HasCircuit(u, v)
				if cs.has(u, v) != has {
					t.Fatalf("n=%d: has(%d, %d) = %v, HasCircuit = %v", s.N, u, v, cs.has(u, v), has)
				}
				if has {
					want = append(want, int16(v))
				}
			}
			if !slices.Equal(cs.nbr[u], want) {
				t.Fatalf("n=%d: nbr[%d] = %v, want %v", s.N, u, cs.nbr[u], want)
			}
		}
	}
	for trial := 0; trial < 50; trial++ {
		check(shifts(2+r.Intn(10), 1+r.Intn(6)))
	}
	for _, n := range []int{denseCircuitMax, denseCircuitMax + 7} {
		check(shifts(n, 8))
	}
}

func TestRerouteFreshCellAtDestinationConsumesFresh(t *testing.T) {
	// rerouteFrom's u == dst guard delivers the cell in place. If the
	// cell never left its source, the synthesized delivery must also
	// consume the fresh-cell accounting — otherwise the source's fresh
	// counter leaks and saturation top-up logic under-injects forever.
	sched := matching.RoundRobin(8)
	d, _ := routing.NewDirect(sched)
	s := newSim(t, sched, d, 9)
	s.StartMeasuring()
	f := s.InjectFlow(0, 3, 1)
	// Manufacture the guard's input: a still-fresh cell of that flow
	// sitting at its own destination (reachable via routes that cross
	// dst mid-path, e.g. ORN digit paths, when a reconfigure requeues).
	s.fresh[3]++
	c := cell{flow: 0, hops: 2 | freshBit}
	c.rest[0] = 3 // waypoint 0 (node 5) is implied by the VOQ
	s.rerouteFrom(3, &c)
	s.fold()
	if s.fresh[3] != 0 {
		t.Fatalf("fresh counter leaked: fresh[3] = %d, want 0", s.fresh[3])
	}
	if f.Delivered() != 1 {
		t.Fatalf("delivered = %d, want 1 (in-place delivery)", f.Delivered())
	}
	if s.Stats().DeliveredCells != 1 {
		t.Fatalf("DeliveredCells = %d, want 1", s.Stats().DeliveredCells)
	}
}

// TestCellConservationNodeFailureMidRun kills a node while its VOQs and
// the VOQs pointing at it hold cells. The purge must surface every
// vanished cell as LostCells (no "vanishing cells"), the network must
// still drain, and every flow must satisfy delivered + lost == size.
func TestCellConservationNodeFailureMidRun(t *testing.T) {
	n := 16
	sched := matching.RoundRobin(n)
	v, _ := routing.NewVLB(sched)
	s := newSim(t, sched, v, 48)
	s.StartMeasuring()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				s.InjectFlow(i, j, 3)
			}
		}
	}
	for i := 0; i < 50; i++ {
		s.Step()
	}
	checkConservation(t, s)
	before := s.Stats().LostCells
	s.FailNode(9)
	// The purge itself must keep the invariant, before any further Step.
	checkConservation(t, s)
	if s.Stats().LostCells == before {
		t.Fatal("FailNode purged no cells from a saturated node (expected queued cells at node 9)")
	}
	// FailNode is idempotent: a second call must not double-count.
	lost := s.Stats().LostCells
	s.FailNode(9)
	if got := s.Stats().LostCells; got != lost {
		t.Fatalf("second FailNode changed LostCells: %d -> %d", lost, got)
	}
	// Injecting at a dead source is all loss, immediately accounted.
	f := s.InjectFlow(9, 2, 5)
	if f.Lost() != 5 || f.Delivered() != 0 {
		t.Fatalf("flow from failed source: delivered %d lost %d, want 0/5", f.Delivered(), f.Lost())
	}
	checkConservation(t, s)
	for i := 0; i < 20000 && !s.Drained(); i++ {
		s.Step()
		if i%500 == 0 {
			checkConservation(t, s)
		}
	}
	if !s.Drained() {
		t.Fatal("network did not drain after node failure (cells stuck or vanished)")
	}
	// Drained, so this also checks every flow settled exactly once with
	// delivered + lost == size.
	checkConservation(t, s)
}

// TestFailureDuringStepPanics pins the injection contract: failures are
// only legal between Steps. The guard must fire rather than let a
// mutation change a Step's inputs halfway through it.
func TestFailureDuringStepPanics(t *testing.T) {
	sched := matching.RoundRobin(8)
	d, _ := routing.NewDirect(sched)
	s := newSim(t, sched, d, 49)
	s.stepping = true // as if called from inside a Step
	for name, fn := range map[string]func(){
		"FailLink": func() { s.FailLink(0, 1) },
		"FailNode": func() { s.FailNode(2) },
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
	// Between Steps both calls are legal again.
	s.FailLink(0, 1)
	s.FailNode(2)
}

// TestFailLinkBetweenStepsParallel pins the documented lazy-bitmap
// contract: a FailLink injected between Steps is visible from the very
// next Step, with identical results on simulators stepping at once.
func TestFailLinkBetweenStepsParallel(t *testing.T) {
	runScenario(t, func(t *testing.T) *Sim {
		n := 16
		sched := matching.RoundRobin(n)
		v, err := routing.NewVLB(sched)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{Schedule: sched, Router: v, SlotNS: 100, PropNS: 500,
			Seed: 50, LatencySampleEvery: 2})
		if err != nil {
			t.Fatal(err)
		}
		s.StartMeasuring()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j {
					s.InjectFlow(i, j, 2)
				}
			}
		}
		// Interleave failures with stepping, always on the step boundary.
		for i := 0; i < 30; i++ {
			s.Step()
		}
		s.FailLink(0, 3)
		for i := 0; i < 30; i++ {
			s.Step()
		}
		s.FailLink(7, 2)
		s.FailLink(3, 0)
		for i := 0; i < 20000 && !s.Drained(); i++ {
			s.Step()
		}
		checkConservation(t, s)
		return s
	})
}

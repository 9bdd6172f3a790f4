package netsim

import (
	"slices"
	"testing"

	"repro/internal/matching"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/schedule"
	"repro/internal/workload"
)

// drainedSim returns a small SORN sim that has carried a few hundred
// flows and drained: every flow settled, most slots reused.
func drainedSim(t *testing.T) *Sim {
	t.Helper()
	built, err := schedule.BuildSORN(schedule.SORNConfig{N: 16, Nc: 4, Q: 2})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Schedule: built.Schedule, Router: routing.NewSORN(built), SlotNS: 100, PropNS: 300, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewPoissonFlows(workload.Uniform(16), workload.FixedSize(4), 0.2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunOpenLoop(gen.Window(0, 2000), 2000); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000 && !s.Drained(); i++ {
		s.Step()
	}
	if !s.Drained() {
		t.Fatal("sim did not drain")
	}
	if err := checkFlowSlots(s); err != nil {
		t.Fatal(err)
	}
	if int(s.nextFlow) <= int(s.usedFlows) {
		t.Fatalf("%d flows in %d slots: no slot was reused", s.nextFlow, s.usedFlows)
	}
	return s
}

// TestFlowSlotCheckCatchesDoubleSettle: the drained-arena check behind
// checkConservation fails on a flow settled twice and on a duplicated
// cell, which settles its flow one cell early and then overshoots.
func TestFlowSlotCheckCatchesDoubleSettle(t *testing.T) {
	s := drainedSim(t)
	last := s.freeFlows[len(s.freeFlows)-1]
	s.settle(last)
	if checkFlowSlots(s) == nil {
		t.Fatal("a slot settled twice passed the check")
	}

	s = drainedSim(t)
	fi := s.freeFlows[len(s.freeFlows)-1] // the slot InjectFlow reuses
	f := s.InjectFlow(0, 5, 3)
	if s.flow(fi) != f {
		t.Fatal("InjectFlow did not reuse the most recently settled slot")
	}
	dup := cell{flow: fi, hops: 1, idx: 1}
	s.deliver(5, &dup) // a copy of one of the flow's cells
	for i := 0; i < 10000 && !s.Drained(); i++ {
		s.Step()
	}
	if f.Delivered() != 4 {
		t.Fatalf("flow of 3 cells with one duplicated delivered %d", f.Delivered())
	}
	if checkFlowSlots(s) == nil {
		t.Fatal("a duplicated cell passed the check")
	}
}

// affectedPairsRef is the AffectedPairs computation over a flow history:
// the fraction of distinct (src, dst) pairs among the flows that lost a
// cell in at least one of them.
func affectedPairsRef(flows []FlowState) float64 {
	type pair struct{ s, d int32 }
	seen := map[pair]bool{}
	hit := map[pair]bool{}
	for _, f := range flows {
		p := pair{f.src, f.dst}
		seen[p] = true
		if f.lost > 0 {
			hit[p] = true
		}
	}
	if len(seen) == 0 {
		return 0
	}
	return float64(len(hit)) / float64(len(seen))
}

// TestAffectedPairsMatchesFlowHistory pins AffectedPairs against the
// walk over every injected flow it replaced, through FailLink, FailNode,
// a failed source and repairs. The test keeps the history itself: it
// copies a settled flow out of its slot before InjectFlow reuses it, and
// takes the arena's last occupants at the end.
func TestAffectedPairsMatchesFlowHistory(t *testing.T) {
	built, err := schedule.BuildSORN(schedule.SORNConfig{N: 12, Nc: 3, Q: 2})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Schedule: built.Schedule, Router: routing.NewSORN(built), SlotNS: 100, PropNS: 300, Seed: 8}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var history []FlowState
	inject := func(src, dst, size int) {
		if k := len(s.freeFlows); k > 0 {
			history = append(history, *s.flow(s.freeFlows[k-1]))
		}
		s.InjectFlow(src, dst, size)
	}
	check := func(when string) {
		t.Helper()
		all := slices.Clone(history)
		for i := int32(0); i < s.usedFlows; i++ {
			all = append(all, *s.flow(i))
		}
		if got, want := s.AffectedPairs(), affectedPairsRef(all); got != want {
			t.Fatalf("%s: AffectedPairs %v, flow history gives %v", when, got, want)
		}
	}
	r := rng.New(2)
	burst := func(k int) {
		for i := 0; i < k; i++ {
			src, dst := r.Intn(12), r.Intn(11)
			if dst >= src {
				dst++
			}
			inject(src, dst, 1+r.Intn(5))
		}
	}
	run := func(slots int) {
		for i := 0; i < slots; i++ {
			s.Step()
		}
	}
	check("before any flow")
	burst(40)
	run(30)
	check("fault-free")
	if s.AffectedPairs() != 0 {
		t.Fatalf("fault-free run: AffectedPairs %v", s.AffectedPairs())
	}
	s.FailLink(0, 4)
	s.FailLink(5, 9)
	burst(60)
	run(10)
	check("links failed")
	s.FailNode(2) // purges node 2's queues
	burst(60)     // some from failed source 2, lost at injection
	run(40)
	check("node failed")
	s.RepairNode(2)
	s.RepairLink(0, 4)
	burst(60)
	for i := 0; i < 10000 && !s.Drained(); i++ {
		s.Step()
	}
	check("repaired and drained")
	if got := s.AffectedPairs(); got <= 0 || got >= 1 {
		t.Fatalf("AffectedPairs %v: the faults hit no pair, or every pair", got)
	}
	if len(history) == 0 {
		t.Fatal("no slot was reused")
	}

	if err := s.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	if s.AffectedPairs() != 0 || s.FlowsCompleted() != 0 {
		t.Fatalf("after Reset: AffectedPairs %v, FlowsCompleted %d", s.AffectedPairs(), s.FlowsCompleted())
	}
	history = history[:0]
	burst(40)
	run(100)
	check("fault-free after Reset")
}

// TestOpenLoopWindowAllocatesNoFlowBlocks: flow slots are recycled as
// flows settle, so an open-loop window on a warm sim injecting more
// flows than an arena block holds allocates nothing at all, and the
// arena stays at the blocks the most flows in flight at once need.
func TestOpenLoopWindowAllocatesNoFlowBlocks(t *testing.T) {
	built, err := schedule.BuildSORN(schedule.SORNConfig{N: 32, Nc: 4, Q: 2})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Schedule: built.Schedule, Router: routing.NewSORN(built), SlotNS: 100, PropNS: 500, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewPoissonFlows(workload.Uniform(32), workload.FixedSize(4), 0.1, 9)
	if err != nil {
		t.Fatal(err)
	}
	const window, tail = 4000, 1000
	flows := gen.Window(0, window)
	if len(flows) <= 1<<flowBlockBits {
		t.Fatalf("a window of %d flows fits one arena block", len(flows))
	}
	buf := make([]workload.Flow, len(flows))
	runWindow := func() {
		start := s.Slot()
		for i, f := range flows {
			f.Arrival += start
			buf[i] = f
		}
		if _, err := s.RunOpenLoop(buf, start+window+tail); err != nil {
			t.Fatal(err)
		}
	}
	runWindow() // grows every buffer to what a window needs
	if !s.Drained() {
		t.Fatal("the window did not drain within its tail")
	}
	blocks := len(s.flows)
	if got := testing.AllocsPerRun(5, runWindow); got != 0 {
		t.Fatalf("a warm open-loop window allocates %v times", got)
	}
	if len(s.flows) != blocks || blocks != 1 {
		t.Fatalf("arena went from %d to %d blocks over windows of %d flows", blocks, len(s.flows), len(flows))
	}
	if peak := int(s.usedFlows); peak >= len(flows)/4 {
		t.Fatalf("%d slots for windows of %d flows: settled slots are not reused", peak, len(flows))
	}
	checkConservation(t, s)
}

// TestArenaPeaksAtFlowsInFlight: with slots reused most recently
// settled first, a new slot is handed out only when every slot is in
// use, so the slots handed out equal the most flows ever in flight at
// once.
func TestArenaPeaksAtFlowsInFlight(t *testing.T) {
	sched := matching.RoundRobin(8)
	d, err := routing.NewDirect(sched)
	if err != nil {
		t.Fatal(err)
	}
	s := newSim(t, sched, d, 6)
	peak := 0
	for slot := 0; slot < 3000; slot++ {
		if slot < 2000 && slot%16 == 0 {
			for k := 0; k < 6; k++ {
				src := (slot/16 + 3*k) % 8
				s.InjectFlow(src, (src+1+k)%8, 1+(slot/16+k)%7)
				peak = max(peak, int(s.usedFlows)-len(s.freeFlows))
			}
		}
		s.Step()
	}
	if !s.Drained() {
		t.Fatal("sim did not drain")
	}
	if peak < 6 {
		t.Fatalf("at most %d flows in flight: the test never overlapped flows", peak)
	}
	if int(s.usedFlows) != peak {
		t.Fatalf("%d slots handed out, %d flows in flight at most", s.usedFlows, peak)
	}
	checkConservation(t, s)
}

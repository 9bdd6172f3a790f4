package experiments

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/faultplan"
	"repro/internal/netsim"
	"repro/internal/obs"
)

// availabilityScenario is the shared test configuration: data-plane
// churn (a node outage, a link outage, light random churn) plus a
// telemetry outage long enough to trip the staleness detector. workers
// sets the deprecated, ignored Workers field.
func availabilityScenario(t *testing.T, workers int) AvailabilityConfig {
	t.Helper()
	const n = 16
	scripted, err := faultplan.New(n, append(
		faultplan.Outage(7, -1, 1200, 2400),   // node 7 down for 1200 slots
		faultplan.Outage(0, 9, 800, 1600)...)) // plus a directed link
	if err != nil {
		t.Fatal(err)
	}
	churn, err := faultplan.Churn(faultplan.ChurnConfig{
		N: n, Start: 0, End: 5000, LinkRate: 0.002, Down: 150, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := faultplan.Merge(scripted, churn)
	if err != nil {
		t.Fatal(err)
	}
	return AvailabilityConfig{
		N: n, Nc: 4, X: 0.6, Load: 0.2,
		Slots: 6000, Window: 250, EpochSlots: 250,
		OutageStart: 1000, OutageEnd: 3000,
		Plan: plan, Seed: 21, Workers: workers,
	}
}

func TestAvailabilityFallbackAndRecovery(t *testing.T) {
	cfg := availabilityScenario(t, 1)
	ob := obs.New(obs.Options{})
	cfg.Obs = ob
	res, err := Availability(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.FellBack {
		t.Fatal("controller never fell back during the telemetry outage")
	}
	if !res.Recovered {
		t.Fatal("controller never recovered after telemetry resumed")
	}
	if len(res.SORN) != len(res.Oblivious) {
		t.Fatalf("series lengths differ: %d vs %d", len(res.SORN), len(res.Oblivious))
	}
	// Degradation must overlap the telemetry outage and be over by the
	// end of the run (telemetry is back for the last 3000 slots).
	last := res.SORN[len(res.SORN)-1]
	if last.Degraded {
		t.Fatal("still degraded at end of run despite restored telemetry")
	}
	degradedDuringOutage := false
	for _, w := range res.SORN {
		if w.Degraded && w.Slot > cfg.OutageStart && w.Slot <= cfg.OutageEnd+cfg.EpochSlots {
			degradedDuringOutage = true
		}
	}
	if !degradedDuringOutage {
		t.Fatal("no degraded window overlaps the telemetry outage")
	}
	// The fabric kept delivering while degraded: the oblivious fallback
	// trades efficiency, not availability.
	for _, w := range res.SORN {
		if w.Degraded && w.Throughput <= 0 {
			t.Fatalf("degraded window ending at slot %d delivered nothing", w.Slot)
		}
	}
	// The control events record the story: at least one fallback and one
	// recovery, in that order.
	var fbAt, recAt int64 = -1, -1
	for _, e := range ob.Events() {
		switch e.Type {
		case obs.EvFallback:
			if fbAt == -1 {
				fbAt = e.Epoch
			}
		case obs.EvRecover:
			recAt = e.Epoch
		}
	}
	if fbAt == -1 || recAt == -1 || recAt <= fbAt {
		t.Fatalf("event trace: fallback at epoch %d, recover at epoch %d", fbAt, recAt)
	}
	// Cell conservation end to end, under churn, repairs, and
	// reconfigurations: everything injected is accounted for.
	for name, st := range map[string]netsim.Stats{"sorn": res.SORNStats, "oblivious": res.ObliviousStats} {
		if st.InjectedCells == 0 {
			t.Fatalf("%s: no cells injected", name)
		}
		accounted := st.DeliveredCells + st.DroppedCells + st.LostCells
		if accounted > st.InjectedCells {
			t.Fatalf("%s: accounted %d cells exceeds injected %d", name, accounted, st.InjectedCells)
		}
	}
}

// TestAvailabilityDeterminismAcrossWorkers: the deprecated Workers field
// is inert through an active fault plan and the full resilient control
// loop, so the benchmark module's traced mirror, which still sets
// Workers 2, compares against the same run.
func TestAvailabilityDeterminismAcrossWorkers(t *testing.T) {
	ref, err := Availability(availabilityScenario(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		got, err := Availability(availabilityScenario(t, workers))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref.SORN, got.SORN) {
			t.Fatalf("Workers=%d SORN series differs from Workers=1", workers)
		}
		if !reflect.DeepEqual(ref.Oblivious, got.Oblivious) {
			t.Fatalf("Workers=%d oblivious series differs from Workers=1", workers)
		}
		if ref.FellBack != got.FellBack || ref.Recovered != got.Recovered {
			t.Fatalf("Workers=%d lifecycle differs: fellback %v/%v recovered %v/%v",
				workers, ref.FellBack, got.FellBack, ref.Recovered, got.Recovered)
		}
		assertStatsIdentical(t, workers, "sorn", &ref.SORNStats, &got.SORNStats)
		assertStatsIdentical(t, workers, "oblivious", &ref.ObliviousStats, &got.ObliviousStats)
	}
}

func assertStatsIdentical(t *testing.T, workers int, label string, a, b *netsim.Stats) {
	t.Helper()
	type counters struct {
		delivered, injected, sent, idle, lost, dropped, measured, completed int64
	}
	ca := counters{a.DeliveredCells, a.InjectedCells, a.SentCells, a.IdleSlots,
		a.LostCells, a.DroppedCells, a.MeasuredSlots, a.CompletedFlows}
	cb := counters{b.DeliveredCells, b.InjectedCells, b.SentCells, b.IdleSlots,
		b.LostCells, b.DroppedCells, b.MeasuredSlots, b.CompletedFlows}
	if ca != cb {
		t.Fatalf("Workers=%d %s stats differ:\n  1: %+v\n  k: %+v", workers, label, ca, cb)
	}
	if !reflect.DeepEqual(a.LatencySlots.Values(), b.LatencySlots.Values()) {
		t.Fatalf("Workers=%d %s latency samples differ", workers, label)
	}
	if !reflect.DeepEqual(a.FCTSlots.Values(), b.FCTSlots.Values()) {
		t.Fatalf("Workers=%d %s FCT samples differ", workers, label)
	}
}

// TestAvailabilityRejectsBadConfig: a negative reporting window printed
// negative throughputs, a negative epoch computed negative fast-forward
// targets, an inverted outage window silently meant "no outage", and a
// NaN load ran with no traffic at all. Each must be an error instead.
func TestAvailabilityRejectsBadConfig(t *testing.T) {
	for name, mutate := range map[string]func(*AvailabilityConfig){
		"negative window": func(c *AvailabilityConfig) { c.Window = -3 },
		"negative epoch":  func(c *AvailabilityConfig) { c.EpochSlots = -7 },
		"inverted outage": func(c *AvailabilityConfig) { c.OutageStart, c.OutageEnd = 3000, 1000 },
		"NaN load":        func(c *AvailabilityConfig) { c.Load = math.NaN() },
	} {
		cfg := availabilityScenario(t, 1)
		mutate(&cfg)
		if _, err := Availability(cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

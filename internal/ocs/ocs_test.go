package ocs

import (
	"reflect"
	"testing"

	"repro/internal/matching"
	"repro/internal/schedule"
)

func TestAWGRBasics(t *testing.T) {
	sw, err := NewAWGR(8)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Ports() != 8 {
		t.Fatalf("ports=%d", sw.Ports())
	}
	// λ3 from port 2 lands on port 5.
	m := sw.Matching(3)
	if m[2] != 5 {
		t.Fatalf("λ3 routes port 2 to %d, want 5", m[2])
	}
	w, ok := sw.WavelengthFor(2, 5)
	if !ok || w != 3 {
		t.Fatalf("WavelengthFor(2,5) = %d,%v", w, ok)
	}
	// Wrap-around: 6 -> 1 needs λ3.
	w, ok = sw.WavelengthFor(6, 1)
	if !ok || w != 3 {
		t.Fatalf("WavelengthFor(6,1) = %d,%v", w, ok)
	}
	if _, ok := sw.WavelengthFor(3, 3); ok {
		t.Fatal("self circuit should have no wavelength")
	}
	if _, ok := sw.WavelengthFor(-1, 3); ok {
		t.Fatal("out-of-range port accepted")
	}
	if _, err := NewAWGR(1); err == nil {
		t.Fatal("1-port switch accepted")
	}
}

func TestWavelengthMatchingConsistency(t *testing.T) {
	sw, _ := NewAWGR(16)
	for k := 1; k < 16; k++ {
		m := sw.Matching(k)
		for s, d := range m {
			w, ok := sw.WavelengthFor(s, d)
			if !ok || w != k {
				t.Fatalf("λ%d: port %d->%d, WavelengthFor gives %d,%v", k, s, d, w, ok)
			}
		}
	}
}

func TestCompileNodeStatesRoundRobin(t *testing.T) {
	sw, _ := NewAWGR(8)
	s := matching.RoundRobin(8)
	states, err := CompileNodeStates(sw, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 8 {
		t.Fatalf("%d states", len(states))
	}
	// In a round robin, node n transmits wavelength t+1 in slot t.
	for _, ns := range states {
		for slot, w := range ns.TxWavelength {
			if w != slot+1 {
				t.Fatalf("node %d slot %d: λ%d, want λ%d", ns.Node, slot, w, slot+1)
			}
		}
		if len(ns.Neighbors) != 7 {
			t.Fatalf("node %d neighbors %d", ns.Node, len(ns.Neighbors))
		}
		if ns.StateBytes() != 2*7+16*7 {
			t.Fatalf("state bytes = %d", ns.StateBytes())
		}
	}
}

func TestCompileNodeStatesSORN(t *testing.T) {
	sw, _ := NewAWGR(8)
	a := schedule.TopologyA()
	states, err := CompileNodeStates(sw, a.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	// Replaying the compiled wavelengths must reproduce the schedule.
	for _, ns := range states {
		for slot, w := range ns.TxWavelength {
			if got := sw.Matching(w)[ns.Node]; got != a.Schedule.Slots[slot][ns.Node] {
				t.Fatalf("node %d slot %d: wavelength replay gives %d, schedule says %d",
					ns.Node, slot, got, a.Schedule.Slots[slot][ns.Node])
			}
		}
	}
}

func TestCompileNodeStatesSizeMismatch(t *testing.T) {
	sw, _ := NewAWGR(8)
	if _, err := CompileNodeStates(sw, matching.RoundRobin(4)); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

func TestPlanUpdateRebalanceKeepsNeighbors(t *testing.T) {
	// Rebalancing q within the same cliques must preserve the neighbor
	// superset (no drains) — the paper's §5 argument.
	s1, err := schedule.BuildSORN(schedule.SORNConfig{N: 16, Nc: 2, Q: 1})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := schedule.BuildSORN(schedule.SORNConfig{N: 16, Nc: 2, Q: 7})
	if err != nil {
		t.Fatal(err)
	}
	u, err := PlanUpdate(s1.Schedule, s2.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if !u.PreservesNeighborSuperset() {
		t.Fatalf("q rebalance required %d drains; removed=%v",
			u.DrainsRequired(), u.RemovedNeighbors)
	}
	if u.TotalSlotChanges() == 0 {
		t.Fatal("q rebalance changed no slots")
	}
}

func TestPlanUpdateReclusterNeedsDrains(t *testing.T) {
	// Changing the clique structure removes neighbors, requiring drains.
	s1, _ := schedule.BuildSORN(schedule.SORNConfig{N: 16, Nc: 2, Q: 2})
	s2, _ := schedule.BuildSORN(schedule.SORNConfig{N: 16, Nc: 4, Q: 2})
	u, err := PlanUpdate(s1.Schedule, s2.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if u.DrainsRequired() == 0 {
		t.Fatal("re-clustering reported zero drains")
	}
}

func TestPlanUpdateIdentity(t *testing.T) {
	s := matching.RoundRobin(8)
	u, err := PlanUpdate(s, s)
	if err != nil {
		t.Fatal(err)
	}
	if u.TotalSlotChanges() != 0 || u.DrainsRequired() != 0 {
		t.Fatal("identity update not a no-op")
	}
	// Unchanged is the same update without the validation and the diff.
	if got := Unchanged(s); !reflect.DeepEqual(got, u) {
		t.Fatalf("Unchanged = %+v, PlanUpdate(s, s) = %+v", got, u)
	}
}

func TestPlanUpdateErrors(t *testing.T) {
	if _, err := PlanUpdate(matching.RoundRobin(8), matching.RoundRobin(4)); err == nil {
		t.Fatal("size mismatch accepted")
	}
	bad := &matching.Schedule{N: 8}
	if _, err := PlanUpdate(matching.RoundRobin(8), bad); err == nil {
		t.Fatal("empty new schedule accepted")
	}
}

func TestLCMPeriodDiffing(t *testing.T) {
	// Two schedules equal as infinite sequences but with different
	// written periods must diff to zero changes.
	s1 := &matching.Schedule{N: 4, Slots: []matching.Matching{
		matching.CyclicShift(4, 1), matching.CyclicShift(4, 2),
	}}
	s2 := &matching.Schedule{N: 4, Slots: []matching.Matching{
		matching.CyclicShift(4, 1), matching.CyclicShift(4, 2),
		matching.CyclicShift(4, 1), matching.CyclicShift(4, 2),
	}}
	u, err := PlanUpdate(s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	if u.TotalSlotChanges() != 0 {
		t.Fatalf("equivalent schedules show %d slot changes", u.TotalSlotChanges())
	}
}

func TestStateBytesScalesWithPeriod(t *testing.T) {
	sw, _ := NewAWGR(8)
	short, _ := CompileNodeStates(sw, schedule.TopologyA().Schedule)
	long, _ := CompileNodeStates(sw, matching.RoundRobin(8))
	if short[0].StateBytes() >= long[0].StateBytes() {
		t.Fatalf("4-slot schedule state %dB not below 7-slot %dB",
			short[0].StateBytes(), long[0].StateBytes())
	}
}

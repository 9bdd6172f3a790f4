package netsim

import (
	"fmt"

	"repro/internal/stats"
)

// BitIdentical reports whether o equals s exactly: every counter and
// every sample stream, bit for bit and in insertion order. This is the
// package's determinism contract — Sim.Reset reuse, the engine the
// tests pick, concurrent sims on other goroutines, and an attached
// observer must never change Stats — stated once so the
// determinism test suites and the differential oracle harness share it.
// On mismatch the returned string names the first differing field.
func (s *Stats) BitIdentical(o *Stats) (diff string, ok bool) {
	type counter struct {
		name string
		a, b int64
	}
	for _, c := range []counter{
		{"DeliveredCells", s.DeliveredCells, o.DeliveredCells},
		{"InjectedCells", s.InjectedCells, o.InjectedCells},
		{"SentCells", s.SentCells, o.SentCells},
		{"IdleSlots", s.IdleSlots, o.IdleSlots},
		{"LostCells", s.LostCells, o.LostCells},
		{"DroppedCells", s.DroppedCells, o.DroppedCells},
		{"MeasuredSlots", s.MeasuredSlots, o.MeasuredSlots},
		{"CompletedFlows", s.CompletedFlows, o.CompletedFlows},
		{"Planes", int64(s.Planes), int64(o.Planes)},
	} {
		if c.a != c.b {
			return fmt.Sprintf("%s: %d vs %d", c.name, c.a, c.b), false
		}
	}
	if d, ok := sampleBitIdentical("LatencySlots", &s.LatencySlots, &o.LatencySlots); !ok {
		return d, false
	}
	if d, ok := sampleBitIdentical("FCTSlots", &s.FCTSlots, &o.FCTSlots); !ok {
		return d, false
	}
	for i := range s.LatencyByHops {
		name := fmt.Sprintf("LatencyByHops[%d]", i)
		if d, ok := sampleBitIdentical(name, &s.LatencyByHops[i], &o.LatencyByHops[i]); !ok {
			return d, false
		}
	}
	return "", true
}

func sampleBitIdentical(name string, a, b *stats.Sample) (string, bool) {
	av, bv := a.Values(), b.Values()
	if len(av) != len(bv) {
		return fmt.Sprintf("%s: %d vs %d observations", name, len(av), len(bv)), false
	}
	for i := range av {
		//sornlint:ignore floateq -- bit-identity is the determinism contract
		if av[i] != bv[i] {
			return fmt.Sprintf("%s[%d]: %v vs %v", name, i, av[i], bv[i]), false
		}
	}
	return "", true
}

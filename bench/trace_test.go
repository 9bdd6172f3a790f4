package main

import (
	"math"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "rep", Start: 0, End: 100},
		// Overlapping children (two sweep workers) count once; a child
		// running past its parent counts only inside it.
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40, Ops: []opAgg{{SumNS: 10}}},
		{ID: 2, Parent: 0, Name: "b", Start: 30, End: 60},
		{ID: 3, Parent: 0, Name: "c", Start: 80, End: 120},
		{ID: 4, Parent: 2, Name: "d", Start: 30, End: 35},
		{ID: 5, Parent: 2, Name: "e", Start: 33, End: 50},
	}
	want := []int64{100 - 50 - 20, 30 - 10, 30 - 20, 40, 5, 17}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %s: self %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestUnattributed(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "rep", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "sweep.point", Start: 0, End: 90},
		{ID: 2, Parent: 0, Name: "sweep.point", Start: 5, End: 100},
		{ID: 3, Parent: 1, Name: "fluid.solve", Start: 0, End: 80},
		{ID: 4, Parent: 2, Name: "netsim.chunk", Start: 5, End: 95},
	}
	// Points cover the rep, so only the points' gaps are unaccounted
	// for: 10 + 5 of 90 + 95 worker-ns.
	if got, want := unattributed(spans), 15.0/185; math.Abs(got-want) > 1e-12 {
		t.Errorf("unattributed = %v, want %v", got, want)
	}
}

func TestChunkOps(t *testing.T) {
	tr := newTracer()
	tr.startRun("r")
	c := tr.chunk(-1, 0)
	c.op(opStep, 1)
	c.op(opInject, 3)
	c.next(100) // under chunkSlots: stays open
	c.op(opStep, 1)
	c.next(300)
	c.op(opStep, 1)
	c.flush(310)
	rd := tr.takeRun()
	if n := rd.calls["netsim.chunk"]; n != 2 {
		t.Fatalf("%d chunks, want 2", n)
	}
	if rd.calls["netsim.step"] != 3 || rd.calls["netsim.inject"] != 3 {
		t.Errorf("calls %v", rd.calls)
	}
	var chunks, ops int64
	var invocations []int64
	for _, s := range rd.spans {
		chunks += s.End - s.Start
		var n int64
		for _, a := range s.Ops {
			ops += a.SumNS
			for _, h := range a.Hist {
				n += h
			}
		}
		invocations = append(invocations, n)
	}
	if len(invocations) != 2 || invocations[0] != 3 || invocations[1] != 1 {
		t.Errorf("histograms count %v op invocations per chunk, want [3 1]", invocations)
	}
	if chunks != ops {
		t.Errorf("chained ops cover %d of the chunks' %d ns", ops, chunks)
	}
	if len(rd.samps["netsim.slot_ns"]) != 2 || len(rd.samps["netsim.step_ns"]) != 2 {
		t.Errorf("samples %v", rd.samps)
	}
}

package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faultplan"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/workload"
)

// CI-sized versions of the benchmark's workloads.

func smallFig2f(runSim bool) experiments.Fig2fConfig {
	if !runSim {
		return experiments.Fig2fConfig{N: 64, Nc: 8, Step: 0.25, SizeCap: 1333, Seed: 7, SweepWorkers: 2}
	}
	return experiments.Fig2fConfig{
		N: 32, Nc: 4, Step: 0.5, RunSim: true,
		WarmupSlots: 1200, MeasureSlots: 1200, Backlog: 256, SizeCap: 1333,
		Seed: 7, Workers: 1, SweepWorkers: 2,
	}
}

func smallFCT() experiments.FCTConfig {
	return experiments.FCTConfig{
		N: 32, Nc: 4, X: 0.56, Loads: []float64{0.01, 0.3}, Slots: 4000,
		Seed: 7, Workers: 1, SweepWorkers: 2,
	}
}

func smallAvail(t *testing.T) experiments.AvailabilityConfig {
	plan, err := faultplan.ParseSpec("churn@100-7000,links=0.002,nodes=0.0005,down=500", 32, 7)
	if err != nil {
		t.Fatal(err)
	}
	return experiments.AvailabilityConfig{
		N: 32, Nc: 4, X: 0.56, Load: 0.3, Slots: 8000, EpochSlots: 250,
		OutageStart: 2000, OutageEnd: 4000, Plan: plan,
		Seed: 7, Workers: 2, SweepWorkers: 2, Obs: obs.New(obs.Options{MetricsEvery: 64}),
	}
}

func TestFig2fTracedMatchesEntryPoint(t *testing.T) {
	for _, runSim := range []bool{true, false} {
		cfg := smallFig2f(runSim)
		want, err := experiments.Fig2f(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := fig2fTraced(cfg, newTracer(), -1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("RunSim=%v: traced %+v, entry point %+v", runSim, got, want)
		}
	}
}

func TestFCTTracedMatchesEntryPoint(t *testing.T) {
	cfg := smallFCT()
	want, err := experiments.FCTvsLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fctTraced(cfg, newTracer(), -1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("traced %+v, entry point %+v", got, want)
	}
}

func TestAvailTracedMatchesEntryPoint(t *testing.T) {
	wantCfg, gotCfg := smallAvail(t), smallAvail(t)
	want, err := experiments.Availability(wantCfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := availTraced(gotCfg, newTracer(), -1)
	if err != nil {
		t.Fatal(err)
	}
	if !want.FellBack || !want.Recovered {
		t.Fatalf("the small run must exercise fallback and recovery: fell back %v, recovered %v", want.FellBack, want.Recovered)
	}
	if !reflect.DeepEqual(got.SORN, want.SORN) || !reflect.DeepEqual(got.Oblivious, want.Oblivious) {
		t.Error("windows differ")
	}
	if got.FellBack != want.FellBack || got.Recovered != want.Recovered {
		t.Error("degradation lifecycle differs")
	}
	if d, ok := got.SORNStats.BitIdentical(&want.SORNStats); !ok {
		t.Error("SORN stats:", d)
	}
	if d, ok := got.ObliviousStats.BitIdentical(&want.ObliviousStats); !ok {
		t.Error("oblivious stats:", d)
	}
	if !reflect.DeepEqual(gotCfg.Obs.SeriesRows(), wantCfg.Obs.SeriesRows()) {
		t.Error("observer series differ")
	}
	if !reflect.DeepEqual(gotCfg.Obs.Events(), wantCfg.Obs.Events()) {
		t.Error("observer events differ")
	}
}

// TestRunSaturatedChunked: the chunked calls, with a phase observer
// attached, add up to one RunSaturated call bit for bit.
func TestRunSaturatedChunked(t *testing.T) {
	nw, err := core.NewSORN(32, 4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := nw.LocalityMatrix(0.5)
	if err != nil {
		t.Fatal(err)
	}
	sc := netsim.SaturationConfig{
		TM: tm, Size: workload.NewCapped(workload.WebSearch(), 1333),
		TargetBacklog: 256, WarmupSlots: 700, MeasureSlots: 1000,
	}
	whole, err := nw.NewSim(core.SimOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	want, err := whole.RunSaturated(sc)
	if err != nil {
		t.Fatal(err)
	}
	ob := phaseObserver()
	chunked, err := nw.NewSim(core.SimOptions{Seed: 3, Obs: ob})
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	got, err := runSaturatedChunked(chunked, sc, ob, tr, -1)
	if err != nil {
		t.Fatal(err)
	}
	if d, ok := got.BitIdentical(want); !ok {
		t.Error(d)
	}
	if n := tr.takeRun().calls["netsim.chunk"]; n != 4 {
		t.Errorf("%d chunks, want 4 (warmup+256, then 256, 256, 232)", n)
	}
}

// TestTracedRepMatchesUntraced measures a traced and an untraced rep of
// a small workload: the traced rep must reproduce the untraced digest,
// the reps must yield every metric BENCHMARK.json names, and the spans
// must be written.
func TestTracedRepMatchesUntraced(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	w := fctWorkload("small", smallFCT())
	plain, err := measureRep(w, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	traced, err := measureRep(w, tr, 2)
	if err != nil {
		t.Fatal(err)
	}
	spans := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := tr.appendJSONL(spans); err != nil {
		t.Fatal(err)
	}
	rec, err := aggregate(spec, w.name, 7, true, []repReport{plain}, []repReport{traced}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Correct || rec.Attempted != 8 {
		t.Errorf("traced run: %d runs, failures %q", rec.Attempted, rec.Failures)
	}
	if u := rec.Metrics["trace.unattributed_frac"].Value; !(u >= 0 && u < 0.5) {
		t.Errorf("trace.unattributed_frac = %v", u)
	}
	if _, err := aggregate(spec, w.name, 7, false, []repReport{plain, plain}, nil, nil); err != nil {
		t.Error(err)
	}
	other := plain
	other.Digest = "0"
	if rec, _ := aggregate(spec, w.name, 7, false, []repReport{plain, other}, nil, nil); rec.Correct {
		t.Error("a rep with a different sim_digest must fail the run")
	}

	f, err := os.Open(spans)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	names := map[string]int{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		if s.End < s.Start || s.Self < 0 || s.Self > s.End-s.Start {
			t.Errorf("span %+v: bad interval or self time", s)
		}
		names[s.Name]++
	}
	for _, n := range []string{"setup", "core.build", "rep", "sweep.point", "workload.gen", "core.acquire", "netsim.chunk"} {
		if names[n] == 0 {
			t.Errorf("no %s span in %v", n, names)
		}
	}
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	ws, err := workloads(42)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != len(spec.Workloads) {
		t.Fatalf("%d workloads, BENCHMARK.json names %d", len(ws), len(spec.Workloads))
	}
	for i, w := range ws {
		if w.name != spec.Workloads[i].Name {
			t.Errorf("workload %d is %s, BENCHMARK.json says %s", i, w.name, spec.Workloads[i].Name)
		}
	}
	var setup metricSpec
	for _, m := range spec.EndToEnd {
		if m.Name == "setup_s" {
			setup = m
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound > setup.Bound {
			t.Errorf("%s bound %v exceeds setup_s's %v", m.Name, m.Bound, setup.Bound)
		}
	}
}

package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/schedule"
	"repro/internal/workload"
)

func TestNewSORNThroughputMatchesTheory(t *testing.T) {
	nw, err := NewSORN(64, 8, 0.56)
	if err != nil {
		t.Fatal(err)
	}
	if nw.Kind != "sorn" || nw.SORN == nil || nw.N() != 64 {
		t.Fatal("network malformed")
	}
	tm, err := nw.LocalityMatrix(0.56)
	if err != nil {
		t.Fatal(err)
	}
	res, err := nw.Throughput(tm)
	if err != nil {
		t.Fatal(err)
	}
	ideal := model.SORNThroughput(0.56)
	if math.Abs(res.Theta-ideal)/ideal > 0.15 {
		t.Fatalf("θ = %f vs ideal %f", res.Theta, ideal)
	}
}

func TestBaselinesThroughTheSameAPI(t *testing.T) {
	orn1, err := NewORN1D(16)
	if err != nil {
		t.Fatal(err)
	}
	tm, _ := orn1.LocalityMatrix(0.5) // uniform for non-SORN
	r1, err := orn1.Throughput(tm)
	if err != nil {
		t.Fatal(err)
	}
	orn2, err := NewORN(16, 2)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := orn2.Throughput(workload.Uniform(16))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Theta <= r2.Theta {
		t.Fatalf("1D ORN θ %f should exceed 2D ORN θ %f", r1.Theta, r2.Theta)
	}
	if _, err := NewORN(15, 2); err == nil {
		t.Error("non-square 2D ORN accepted")
	}
}

func TestSimulateSaturatedSmoke(t *testing.T) {
	nw, err := NewSORN(32, 4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	tm, _ := nw.LocalityMatrix(0.5)
	st, err := nw.SimulateSaturated(SimOptions{
		Seed: 1, WarmupSlots: 1000, MeasureSlots: 4000, TargetBacklog: 64,
	}, tm, workload.FixedSize(4))
	if err != nil {
		t.Fatal(err)
	}
	r := st.Throughput(32)
	if r < 0.3 || r > 0.55 {
		t.Fatalf("saturated r = %f out of plausible range", r)
	}
}

func TestAdaptiveLoopImprovesAfterShift(t *testing.T) {
	a, err := NewAdaptive(32, 4, 0.2, false)
	if err != nil {
		t.Fatal(err)
	}
	cl, _ := schedule.EqualCliques(32, 4)

	// Phase 1: low locality.
	tm1, _ := workload.Locality(cl, 0.2)
	p1, err := a.Adapt(tm1)
	if err != nil {
		t.Fatal(err)
	}
	// Phase 2: locality jumps; adapting must raise q and predicted r.
	tm2, _ := workload.Locality(cl, 0.9)
	var p2Q, p2R float64
	for i := 0; i < 6; i++ { // EWMA converges over a few epochs
		p2, err := a.Adapt(tm2)
		if err != nil {
			t.Fatal(err)
		}
		p2Q, p2R = p2.Q, p2.PredictedR
	}
	if p2Q <= p1.Q {
		t.Fatalf("q did not rise after locality shift: %f -> %f", p1.Q, p2Q)
	}
	if p2R <= p1.PredictedR {
		t.Fatalf("predicted r did not improve: %f -> %f", p1.PredictedR, p2R)
	}
	// The installed network reflects the new plan.
	res, err := a.Network.Throughput(tm2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Theta < 0.40 {
		t.Fatalf("adapted network θ = %f, want near 1/(3-0.9)=0.476", res.Theta)
	}
}

func TestAdaptiveRecluster(t *testing.T) {
	a, err := NewAdaptive(32, 4, 0.5, true)
	if err != nil {
		t.Fatal(err)
	}
	planted := make([]int, 32)
	for i := range planted {
		planted[i] = i % 4
	}
	cl, _ := schedule.NewCliques(planted)
	tm, _ := workload.Locality(cl, 0.9)
	p, err := a.Adapt(tm)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.X-0.9) > 1e-9 {
		t.Fatalf("recluster did not recover planted locality: x=%f", p.X)
	}
}

func TestSimOptionsDefaults(t *testing.T) {
	o := SimOptions{}.withDefaults()
	if o.SlotNS != 100 || o.PropNS != 500 || o.MeasureSlots == 0 || o.TargetBacklog == 0 {
		t.Fatalf("defaults not applied: %+v", o)
	}
}

// TestSimOptionsWorkersInert: the deprecated Workers field changes
// nothing, so a caller still setting it (the benchmark module's
// Workers: 2 mirror test) gets the serial run's Stats bit for bit.
func TestSimOptionsWorkersInert(t *testing.T) {
	nw, err := NewSORN(32, 4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := nw.LocalityMatrix(0.5)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) *netsim.Stats {
		st, err := nw.SimulateSaturated(SimOptions{Seed: 3, LatencySampleEvery: 4, Workers: workers,
			WarmupSlots: 300, MeasureSlots: 1200, TargetBacklog: 64}, tm, workload.FixedSize(4))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	want, got := run(0), run(3)
	if want.DeliveredCells == 0 || want.LatencySlots.Count() == 0 {
		t.Fatal("the run delivered or sampled nothing; the comparison is vacuous")
	}
	if diff, ok := want.BitIdentical(got); !ok {
		t.Fatalf("Workers 3 changed the Stats of Workers 0: %s", diff)
	}
}

// TestSimOptionsNegativeSampleRejected: withDefaults fills only zeros, so
// a negative LatencySampleEvery reaches netsim, whose error names it —
// through NewSim, through a fresh SimPool slot and through a pooled Reset.
func TestSimOptionsNegativeSampleRejected(t *testing.T) {
	nw, err := NewSORN(16, 4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	bad := SimOptions{Seed: 1, LatencySampleEvery: -3}
	const want = "LatencySampleEvery -3"
	if o := bad.withDefaults(); o.LatencySampleEvery != -3 {
		t.Fatalf("withDefaults turned LatencySampleEvery -3 into %d", o.LatencySampleEvery)
	}
	if _, err := nw.NewSim(bad); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("NewSim: error %v, want one naming %q", err, want)
	}
	pool := NewSimPool(1)
	if _, err := pool.Acquire(0, nw, bad); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Acquire on an empty slot: error %v, want one naming %q", err, want)
	}
	if _, err := pool.Acquire(0, nw, SimOptions{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Acquire(0, nw, bad); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Acquire on a pooled sim: error %v, want one naming %q", err, want)
	}
}

// TestConstructorsRejectBadInput pins that out-of-domain inputs come back
// as errors, never panics: a locality ratio outside [0, 1] (NaN included)
// and a flat ORN with fewer than two nodes, through both the direct
// constructors and their memoized BuildCache forms.
func TestConstructorsRejectBadInput(t *testing.T) {
	type badInput struct {
		name  string
		build func() (*Network, error)
	}
	cache := NewBuildCache()
	var cases []badInput
	for _, x := range []float64{-0.1, 1.5, math.NaN()} {
		cases = append(cases,
			badInput{fmt.Sprintf("NewSORN/x=%v", x), func() (*Network, error) { return NewSORN(64, 8, x) }},
			badInput{fmt.Sprintf("BuildCache.SORN/x=%v", x), func() (*Network, error) { return cache.SORN(64, 8, x) }})
	}
	for _, n := range []int{0, 1} {
		cases = append(cases,
			badInput{fmt.Sprintf("NewORN1D/n=%d", n), func() (*Network, error) { return NewORN1D(n) }},
			badInput{fmt.Sprintf("BuildCache.ORN1D/n=%d", n), func() (*Network, error) { return cache.ORN1D(n) }})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panicked: %v", r)
				}
			}()
			if nw, err := c.build(); err == nil {
				t.Fatalf("want an error, got network %+v", nw)
			}
		})
	}
}

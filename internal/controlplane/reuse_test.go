package controlplane

import (
	"reflect"
	"testing"

	"repro/internal/ocs"
	"repro/internal/schedule"
	"repro/internal/workload"
)

// planAt feeds the controller a locality-x matrix over cl (alpha=1, so
// the estimate is exactly that matrix) and returns its next plan.
func planAt(t *testing.T, c *Controller, cl *schedule.Cliques, x float64) *Plan {
	t.Helper()
	tm, err := workload.Locality(cl, x)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Observe(tm); err != nil {
		t.Fatal(err)
	}
	p, err := c.PlanNext()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// sameAsFresh checks a (possibly reused) build against a fresh build of
// the same partition at q: the schedule the fabric runs must not depend
// on whether the controller reused its incumbent.
func sameAsFresh(t *testing.T, got *schedule.SORN, q float64) {
	t.Helper()
	fresh, err := rebuildOnCliques(got.Cliques, q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Schedule, fresh.Schedule) || !got.Cliques.Equal(fresh.Cliques) ||
		got.WIntra != fresh.WIntra || got.WInter != fresh.WInter || got.RealizedQ != fresh.RealizedQ {
		t.Fatalf("build differs from a fresh build at q=%v", q)
	}
}

func TestPlanNextReusesUnchangedBuild(t *testing.T) {
	c, _ := NewController(32, 4, 1)
	cl, _ := schedule.EqualCliques(32, 4)
	p1 := planAt(t, c, cl, 0.5)
	p2 := planAt(t, c, cl, 0.5)
	if p2.Built != p1.Built {
		t.Fatal("unchanged estimate rebuilt the schedule")
	}
	// Everything but the build is still recomputed per epoch.
	if p2 == p1 || p2.X != p1.X || p2.Q != p1.Q || p2.PredictedR != p1.PredictedR {
		t.Fatal("reused plan does not carry this epoch's estimate")
	}
}

func TestPlanNextReusesBuildForEqualWeights(t *testing.T) {
	c, _ := NewController(32, 4, 1)
	cl, _ := schedule.EqualCliques(32, 4)
	const x1, x2 = 0.5, 0.5 + 1e-6
	// Precondition: the two localities give different q that realize
	// the same integer weights.
	cfg1 := schedule.SORNConfig{N: 32, Nc: 4, Q: 2 / (1 - x1)}
	cfg2 := schedule.SORNConfig{N: 32, Nc: 4, Q: 2 / (1 - x2)}
	i1, e1, _ := cfg1.Weights()
	i2, e2, _ := cfg2.Weights()
	if cfg1.Q == cfg2.Q || i1 != i2 || e1 != e2 {
		t.Fatalf("test setup: q %v, %v give weights %d:%d and %d:%d", cfg1.Q, cfg2.Q, i1, e1, i2, e2)
	}
	p1 := planAt(t, c, cl, x1)
	p2 := planAt(t, c, cl, x2)
	if p2.Built != p1.Built {
		t.Fatal("a q realizing the same weights rebuilt the schedule")
	}
	if p2.X == p1.X {
		t.Fatal("second plan did not see the new estimate")
	}
	sameAsFresh(t, p2.Built, cfg2.Q)
}

func TestPlanNextRebuildsOnNewWeights(t *testing.T) {
	c, _ := NewController(32, 4, 1)
	cl, _ := schedule.EqualCliques(32, 4)
	p1 := planAt(t, c, cl, 0.2)
	p2 := planAt(t, c, cl, 0.8)
	if p2.Built == p1.Built {
		t.Fatal("a q with new weights reused the old schedule")
	}
	if p2.Built.WIntra*p1.Built.WInter == p1.Built.WIntra*p2.Built.WInter {
		t.Fatal("rebuilt schedule kept the old weight ratio")
	}
	sameAsFresh(t, p2.Built, 2/(1-0.8))
	// And back: the incumbent is now the x=0.8 build, so x=0.2 rebuilds.
	if p3 := planAt(t, c, cl, 0.2); p3.Built == p2.Built {
		t.Fatal("returning to the old weights reused the newer schedule")
	}
}

func TestPlanNextRebuildsOnNewCliques(t *testing.T) {
	const n, nc = 32, 4
	c, _ := NewController(n, nc, 1)
	c.Recluster = true
	planted := make([]int, n)
	for i := range planted {
		planted[i] = i % nc
	}
	scattered, _ := schedule.NewCliques(planted)
	contiguous, _ := schedule.EqualCliques(n, nc)
	p1 := planAt(t, c, scattered, 0.9)
	p2 := planAt(t, c, scattered, 0.9)
	if p2.Built != p1.Built {
		t.Fatal("re-clustering to an equal partition rebuilt the schedule")
	}
	p3 := planAt(t, c, contiguous, 0.9)
	if p3.Built == p1.Built {
		t.Fatal("a changed clique assignment reused the old schedule")
	}
	if p3.Built.Cliques.Equal(p1.Built.Cliques) {
		t.Fatal("re-clustering did not move to the new partition")
	}
	sameAsFresh(t, p3.Built, 16)
}

func TestApplyIncumbentRecordsEmptyUpdate(t *testing.T) {
	r, cl := newResilient(t)
	observeLocality(t, r, cl, 0.5)
	d1, err := r.Decide()
	if err != nil {
		t.Fatal(err)
	}
	if !d1.Changed {
		t.Fatal("first decision did not install a schedule")
	}
	observeLocality(t, r, cl, 0.5)
	d2, err := r.Decide()
	if err != nil {
		t.Fatal(err)
	}
	if d2.Plan.Built != d1.Plan.Built || d2.Changed {
		t.Fatalf("steady epoch changed the schedule (same build %v, Changed %v)",
			d2.Plan.Built == d1.Plan.Built, d2.Changed)
	}
	s := d2.Plan.Built.Schedule
	want, err := ocs.PlanUpdate(s, s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d2.Plan.Update, want) {
		t.Fatalf("incumbent update %+v, want %+v", d2.Plan.Update, want)
	}
}

// TestDecideSteadyStateAllocs bounds a control epoch that confirms the
// incumbent plan: it must not rebuild, relabel, validate or diff the
// schedule, only record the epoch's plan and empty update.
func TestDecideSteadyStateAllocs(t *testing.T) {
	c, err := NewController(128, 8, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	r := NewResilient(c)
	cl, _ := schedule.EqualCliques(128, 8)
	tm, err := workload.Locality(cl, 0.56)
	if err != nil {
		t.Fatal(err)
	}
	epoch := func() {
		if err := c.Observe(tm); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Decide(); err != nil {
			t.Fatal(err)
		}
	}
	epoch()
	allocs := testing.AllocsPerRun(20, epoch)
	if allocs > 8 {
		t.Fatalf("steady-state epoch made %.0f allocations, want at most 8", allocs)
	}
}

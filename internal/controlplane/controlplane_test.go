package controlplane

import (
	"math"
	"testing"

	"repro/internal/fluid"
	"repro/internal/matching"
	"repro/internal/model"
	"repro/internal/routing"
	"repro/internal/schedule"
	"repro/internal/workload"
)

func TestEstimatorEWMA(t *testing.T) {
	e, err := NewEstimator(4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if e.Estimate() != nil {
		t.Fatal("estimate before observations should be nil")
	}
	a := workload.Uniform(4)
	if err := e.Observe(a); err != nil {
		t.Fatal(err)
	}
	// Second observation: node 0 sends everything to node 1.
	b := workload.NewMatrix(4)
	b.Rates[0][1] = 1
	if err := e.Observe(b); err != nil {
		t.Fatal(err)
	}
	est := e.Estimate()
	want := 0.5*(1.0/3) + 0.5*1
	if math.Abs(est.Rates[0][1]-want) > 1e-12 {
		t.Fatalf("ewma rate = %f, want %f", est.Rates[0][1], want)
	}
	if e.Observations() != 2 {
		t.Fatalf("observations = %d", e.Observations())
	}
}

func TestEstimatorErrors(t *testing.T) {
	if _, err := NewEstimator(4, 0); err == nil {
		t.Error("alpha=0 accepted")
	}
	if _, err := NewEstimator(4, 1.5); err == nil {
		t.Error("alpha>1 accepted")
	}
	// NaN fails both range comparisons, so it used to slip through and
	// poison the EWMA on the first fold. Regression: reject it.
	if _, err := NewEstimator(4, math.NaN()); err == nil {
		t.Error("alpha=NaN accepted")
	}
	e, _ := NewEstimator(4, 0.5)
	if err := e.Observe(workload.Uniform(8)); err == nil {
		t.Error("size mismatch accepted")
	}
	bad := workload.Uniform(4)
	bad.Rates[2][2] = 1
	if err := e.Observe(bad); err == nil {
		t.Error("invalid matrix accepted")
	}
	if _, err := e.EstimateLocality(nil); err == nil {
		t.Error("locality without observations accepted")
	}
}

func TestEstimatorRejectsPoisonedObservations(t *testing.T) {
	// A single NaN or negative rate would contaminate the EWMA forever
	// ((1-α)·NaN + α·anything = NaN); Observe must reject the matrix and
	// leave the running estimate untouched.
	e, _ := NewEstimator(4, 0.5)
	if err := e.Observe(workload.Uniform(4)); err != nil {
		t.Fatal(err)
	}
	for name, rate := range map[string]float64{"NaN": math.NaN(), "negative": -1, "+Inf": math.Inf(1)} {
		bad := workload.Uniform(4)
		bad.Rates[0][1] = rate
		if err := e.Observe(bad); err == nil {
			t.Errorf("%s rate accepted", name)
		}
	}
	if e.Observations() != 1 {
		t.Fatalf("rejected observations were folded in: count %d", e.Observations())
	}
	if got := e.Estimate().Rates[0][1]; math.IsNaN(got) || got < 0 {
		t.Fatalf("estimate poisoned: rate[0][1] = %f", got)
	}
}

func TestEstimateIsLiveView(t *testing.T) {
	e, _ := NewEstimator(4, 0.5)
	if e.Estimate() != nil {
		t.Fatal("estimate before observations should be nil")
	}
	if err := e.Observe(workload.Uniform(4)); err != nil {
		t.Fatal(err)
	}
	view := e.Estimate()
	before := view.Rates[0][1]
	b := workload.NewMatrix(4)
	b.Rates[0][1] = 1
	if err := e.Observe(b); err != nil {
		t.Fatal(err)
	}
	if view.Rates[0][1] == before {
		t.Fatal("Estimate view did not track the new observation")
	}
}

func TestPlanNextRejectsDegenerateQ(t *testing.T) {
	// MaxQ=0 (a zero-value Controller literal, or misconfiguration)
	// would clamp q* to 0 and build a schedule with no inter-clique
	// capacity; PlanNext must refuse instead.
	c, _ := NewController(32, 4, 1)
	c.MaxQ = 0
	cl, _ := schedule.EqualCliques(32, 4)
	tm, _ := workload.Locality(cl, 0.5)
	if err := c.Observe(tm); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PlanNext(); err == nil {
		t.Fatal("PlanNext accepted a non-positive q")
	}
}

func TestControllerPlansOptimalQ(t *testing.T) {
	c, err := NewController(32, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	cl, _ := schedule.EqualCliques(32, 4)
	tm, _ := workload.Locality(cl, 0.5)
	if err := c.Observe(tm); err != nil {
		t.Fatal(err)
	}
	p, err := c.PlanNext()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.X-0.5) > 1e-9 {
		t.Fatalf("estimated locality %f, want 0.5", p.X)
	}
	// q* = 2/(1-0.5) = 4; realized within integer-weight tolerance.
	if math.Abs(p.Q-4) > 0.5 {
		t.Fatalf("planned q = %f, want ~4", p.Q)
	}
	if math.Abs(p.PredictedR-model.SORNThroughputAtQ(0.5, p.Q)) > 1e-12 {
		t.Fatal("predicted r inconsistent with model")
	}
	if err := c.Apply(p); err != nil {
		t.Fatal(err)
	}
	if c.Current() != p.Built {
		t.Fatal("apply did not install the schedule")
	}
	if p.Update != nil {
		t.Fatal("first apply should have no diff")
	}
}

func TestControllerRebalanceIsDrainFree(t *testing.T) {
	// Locality shifts 0.2 -> 0.8 with the same cliques: the update must
	// preserve the neighbor superset (paper §5).
	c, err := NewController(32, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	cl, _ := schedule.EqualCliques(32, 4)
	tm1, _ := workload.Locality(cl, 0.2)
	if err := c.Observe(tm1); err != nil {
		t.Fatal(err)
	}
	p1, err := c.PlanNext()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Apply(p1); err != nil {
		t.Fatal(err)
	}

	tm2, _ := workload.Locality(cl, 0.8)
	if err := c.Observe(tm2); err != nil {
		t.Fatal(err)
	}
	p2, err := c.PlanNext()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Apply(p2); err != nil {
		t.Fatal(err)
	}
	if p2.Update == nil {
		t.Fatal("second apply should carry a diff")
	}
	if !p2.Update.PreservesNeighborSuperset() {
		t.Fatalf("q rebalance required %d drains", p2.Update.DrainsRequired())
	}
	if p2.Q <= p1.Q {
		t.Fatalf("higher locality should raise q: %f -> %f", p1.Q, p2.Q)
	}
}

func TestControllerMaxQClamp(t *testing.T) {
	c, _ := NewController(32, 4, 1)
	c.MaxQ = 5
	cl, _ := schedule.EqualCliques(32, 4)
	tm, _ := workload.Locality(cl, 0.99)
	if err := c.Observe(tm); err != nil {
		t.Fatal(err)
	}
	p, err := c.PlanNext()
	if err != nil {
		t.Fatal(err)
	}
	if p.Q > 5.51 {
		t.Fatalf("q = %f exceeds clamp", p.Q)
	}
}

func TestReclusterRecoversPlantedCliques(t *testing.T) {
	// Scatter 4 affinity groups across node ids, feed the controller the
	// resulting TM, and check re-clustering recovers the groups.
	const n, nc = 32, 4
	// Planted group of node i = i mod nc (i.e. NOT contiguous).
	planted := make([]int, n)
	for i := range planted {
		planted[i] = i % nc
	}
	plantedCl, err := schedule.NewCliques(planted)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := workload.Locality(plantedCl, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := NewController(n, nc, 1)
	c.Recluster = true
	if err := c.Observe(tm); err != nil {
		t.Fatal(err)
	}
	p, err := c.PlanNext()
	if err != nil {
		t.Fatal(err)
	}
	// The recovered partition must make the planted traffic 90% intra.
	if got := tm.IntraFraction(p.Cliques); math.Abs(got-0.9) > 1e-9 {
		t.Fatalf("reclustered locality = %f, want 0.9", got)
	}
	// And the built schedule must be valid and routable end to end.
	if err := p.Built.Schedule.Validate(); err != nil {
		t.Fatal(err)
	}
	router := routing.NewSORN(p.Built)
	res, err := fluid.Solve(p.Built.Schedule, router, tm)
	if err != nil {
		t.Fatal(err)
	}
	want := model.SORNThroughputAtQ(0.9, p.Built.RealizedQ)
	if res.Theta < want-1e-9 {
		t.Fatalf("reclustered θ = %f below model %f", res.Theta, want)
	}
}

func TestReclusterBeatsStaticPartition(t *testing.T) {
	// With traffic concentrated in scattered groups, adapting the cliques
	// must yield much higher predicted throughput than keeping the naive
	// contiguous partition (the point of semi-obliviousness).
	const n, nc = 32, 4
	planted := make([]int, n)
	for i := range planted {
		planted[i] = i % nc
	}
	plantedCl, _ := schedule.NewCliques(planted)
	tm, _ := workload.Locality(plantedCl, 0.9)

	static, _ := NewController(n, nc, 1)
	if err := static.Observe(tm); err != nil {
		t.Fatal(err)
	}
	ps, err := static.PlanNext()
	if err != nil {
		t.Fatal(err)
	}

	adaptive, _ := NewController(n, nc, 1)
	adaptive.Recluster = true
	if err := adaptive.Observe(tm); err != nil {
		t.Fatal(err)
	}
	pa, err := adaptive.PlanNext()
	if err != nil {
		t.Fatal(err)
	}
	if pa.X <= ps.X+0.3 {
		t.Fatalf("recluster locality %f should far exceed static %f", pa.X, ps.X)
	}
	if pa.PredictedR <= ps.PredictedR {
		t.Fatalf("recluster r %f should beat static %f", pa.PredictedR, ps.PredictedR)
	}
}

func TestControllerErrors(t *testing.T) {
	if _, err := NewController(10, 3, 0.5); err == nil {
		t.Error("non-divisible clique count accepted")
	}
	c, _ := NewController(8, 2, 0.5)
	if _, err := c.PlanNext(); err == nil {
		t.Error("planning without observations accepted")
	}
}

// TestNewControllerRejectsSingletonCliques: cliques of one node realize
// q = 0, which no plan's predicted throughput is defined for, so the
// controller refuses them up front instead of panicking in PlanNext. A
// single clique (flat round robin) stays a valid controller.
func TestNewControllerRejectsSingletonCliques(t *testing.T) {
	for _, tc := range []struct{ n, nc int }{{8, 8}, {2, 2}, {32, 32}} {
		if _, err := NewController(tc.n, tc.nc, 0.5); err == nil {
			t.Errorf("NewController(%d, %d) accepted cliques of one node", tc.n, tc.nc)
		}
	}
	if _, err := NewController(8, 1, 0.5); err != nil {
		t.Errorf("NewController(8, 1): %v", err)
	}
}

func TestRelabeledScheduleMatchesRouter(t *testing.T) {
	// Every circuit the relabeled schedule provides must be consistent
	// with the SORN router's expectations: full intra-clique coverage
	// plus one landing per remote clique, per node.
	planted := []int{0, 1, 0, 1, 1, 0, 1, 0}
	cl, err := schedule.NewCliques(planted)
	if err != nil {
		t.Fatal(err)
	}
	built, err := rebuildOnCliques(cl, 3)
	if err != nil {
		t.Fatal(err)
	}
	comp := matching.Compile(built.Schedule)
	for u := 0; u < 8; u++ {
		// Intra: circuits to every clique peer.
		for _, v := range cl.Members(cl.CliqueOf(u)) {
			if v != u && !comp.HasCircuit(u, v) {
				t.Fatalf("missing intra circuit %d->%d", u, v)
			}
		}
	}
	router := routing.NewSORN(built)
	tm, _ := workload.Locality(cl, 0.5)
	if _, err := fluid.Solve(built.Schedule, router, tm); err != nil {
		t.Fatalf("relabeled schedule unroutable: %v", err)
	}
}

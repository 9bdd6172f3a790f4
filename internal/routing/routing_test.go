package routing

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/matching"
	"repro/internal/rng"
	"repro/internal/schedule"
)

// checkPathsValid verifies that every path the router can produce uses
// only circuits that exist in the schedule, starts at src, ends at dst,
// respects MaxHops, and that probabilities sum to 1. One buffer serves
// every pair, as the Paths contract lets a caller reuse it.
func checkPathsValid(t *testing.T, router Router, c *matching.Compiled, n int) {
	t.Helper()
	if router.N() != n {
		t.Fatalf("%s: N() = %d, want %d", router.Name(), router.N(), n)
	}
	var buf Route
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			total := 0.0
			buf = router.Paths(buf, src, dst, func(p Route, prob float64) {
				total += prob
				if p[0] != src || p[len(p)-1] != dst {
					t.Fatalf("%s: path %v does not connect %d->%d", router.Name(), p, src, dst)
				}
				if p.Hops() > router.MaxHops() {
					t.Fatalf("%s: path %v exceeds MaxHops %d", router.Name(), p, router.MaxHops())
				}
				for i := 0; i+1 < len(p); i++ {
					if p[i] == p[i+1] {
						t.Fatalf("%s: path %v has a self hop", router.Name(), p)
					}
					if !c.HasCircuit(p[i], p[i+1]) {
						t.Fatalf("%s: path %v uses nonexistent circuit %d->%d",
							router.Name(), p, p[i], p[i+1])
					}
				}
			})
			if math.Abs(total-1) > 1e-9 {
				t.Fatalf("%s: path probabilities for %d->%d sum to %f", router.Name(), src, dst, total)
			}
		}
	}
}

// checkRouteValid verifies concrete Route outputs against the schedule.
func checkRouteValid(t *testing.T, router Router, c *matching.Compiled, n int, seed uint64) {
	t.Helper()
	r := rng.New(seed)
	for trial := 0; trial < 500; trial++ {
		src := r.Intn(n)
		dst := r.Intn(n)
		if src == dst {
			continue
		}
		slot := r.Intn(4 * c.Schedule().Period())
		p := router.RouteInto(nil, src, dst, slot, r)
		if p[0] != src || p[len(p)-1] != dst {
			t.Fatalf("%s: route %v does not connect %d->%d", router.Name(), p, src, dst)
		}
		if p.Hops() > router.MaxHops() || p.Hops() < 1 {
			t.Fatalf("%s: route %v has %d hops (max %d)", router.Name(), p, p.Hops(), router.MaxHops())
		}
		for i := 0; i+1 < len(p); i++ {
			if !c.HasCircuit(p[i], p[i+1]) {
				t.Fatalf("%s: route %v uses nonexistent circuit %d->%d", router.Name(), p, p[i], p[i+1])
			}
		}
	}
}

func TestDirectRouter(t *testing.T) {
	c := matching.Compile(matching.RoundRobin(8))
	d, err := NewDirect(c.Schedule())
	if err != nil {
		t.Fatal(err)
	}
	checkPathsValid(t, d, c, 8)
	checkRouteValid(t, d, c, 8, 1)
	if d.MaxHops() != 1 {
		t.Fatal("direct MaxHops != 1")
	}
}

func TestDirectRequiresFullCoverage(t *testing.T) {
	s := schedule.TopologyA()
	if _, err := NewDirect(s.Schedule); err == nil {
		t.Fatal("direct router accepted partial coverage")
	}
}

func TestVLBRouter(t *testing.T) {
	c := matching.Compile(matching.RoundRobin(10))
	v, err := NewVLB(c.Schedule())
	if err != nil {
		t.Fatal(err)
	}
	checkPathsValid(t, v, c, 10)
	checkRouteValid(t, v, c, 10, 2)
}

func TestVLBSpraysAllRelays(t *testing.T) {
	// The Valiant spray must reach every node except src — including dst,
	// which yields the direct path — independent of the injection slot.
	c := matching.Compile(matching.RoundRobin(10))
	v, _ := NewVLB(c.Schedule())
	r := rng.New(3)
	seen := make(map[int]bool)
	for i := 0; i < 2000; i++ {
		p := v.RouteInto(nil, 0, 5, 7, r) // fixed slot: the spray may not depend on it
		w := p[1]
		if w == 0 {
			t.Fatalf("route %v sprays to src itself", p)
		}
		seen[w] = true
	}
	if len(seen) != 9 {
		t.Fatalf("spray reached %d relays, want all 9", len(seen))
	}
}

func TestVLBRequiresFullCoverage(t *testing.T) {
	s := schedule.TopologyA()
	if _, err := NewVLB(s.Schedule); err == nil {
		t.Fatal("VLB accepted partial coverage")
	}
}

func TestORNRouter(t *testing.T) {
	o, err := schedule.BuildOptimalORN(16, 2)
	if err != nil {
		t.Fatal(err)
	}
	router := NewORN(o)
	c := matching.Compile(o.Schedule)
	if router.MaxHops() != 4 {
		t.Fatalf("2D ORN MaxHops = %d", router.MaxHops())
	}
	checkPathsValid(t, router, c, 16)
	checkRouteValid(t, router, c, 16, 4)
}

func TestORNRouter3D(t *testing.T) {
	o, err := schedule.BuildOptimalORN(27, 3)
	if err != nil {
		t.Fatal(err)
	}
	router := NewORN(o)
	c := matching.Compile(o.Schedule)
	if router.MaxHops() != 6 {
		t.Fatalf("3D ORN MaxHops = %d", router.MaxHops())
	}
	checkPathsValid(t, router, c, 27)
	checkRouteValid(t, router, c, 27, 5)
}

func TestSORNRouter(t *testing.T) {
	s, err := schedule.BuildSORN(schedule.SORNConfig{N: 32, Nc: 4, Q: 2})
	if err != nil {
		t.Fatal(err)
	}
	router := NewSORN(s)
	c := matching.Compile(s.Schedule)
	if router.MaxHops() != 3 {
		t.Fatalf("SORN MaxHops = %d", router.MaxHops())
	}
	checkPathsValid(t, router, c, 32)
	checkRouteValid(t, router, c, 32, 5)
}

func TestSORNRouterIntraIs2Hop(t *testing.T) {
	s, _ := schedule.BuildSORN(schedule.SORNConfig{N: 32, Nc: 4, Q: 2})
	router := NewSORN(s)
	router.Paths(nil, 0, 1, func(p Route, prob float64) {
		if p.Hops() > 2 {
			t.Fatalf("intra path %v has %d hops", p, p.Hops())
		}
		for _, node := range p {
			if !s.Cliques.SameClique(0, node) {
				t.Fatalf("intra path %v leaves the clique", p)
			}
		}
	})
}

func TestSORNRouterInterUsesOneInterHop(t *testing.T) {
	s, _ := schedule.BuildSORN(schedule.SORNConfig{N: 32, Nc: 4, Q: 2})
	router := NewSORN(s)
	router.Paths(nil, 0, 20, func(p Route, prob float64) {
		crossings := 0
		for i := 0; i+1 < len(p); i++ {
			if !s.Cliques.SameClique(p[i], p[i+1]) {
				crossings++
			}
		}
		if crossings != 1 {
			t.Fatalf("inter path %v crosses cliques %d times", p, crossings)
		}
	})
}

func TestSORNRouterPaperExample(t *testing.T) {
	// Paper §4: in topology A (8 nodes, 2 cliques of 4), a flow from 0 to
	// 6 could be routed 0->3->7->6 or 0->1->4->6 (load-balancing hop,
	// inter-clique hop, final intra hop). With our fixed same-local-index
	// landing, hop w lands on w+4; verify the paths have that shape.
	s := schedule.TopologyA()
	router := NewSORN(s)
	seen := 0
	router.Paths(nil, 0, 6, func(p Route, prob float64) {
		seen++
		if p.Hops() > 3 {
			t.Fatalf("path %v too long", p)
		}
		// Exactly one inter-clique crossing, and once the path enters
		// clique 1 (nodes 4-7) it stays there.
		crossed := false
		for i := 0; i+1 < len(p); i++ {
			a, b := p[i] >= 4, p[i+1] >= 4
			if a != b {
				if crossed || !b {
					t.Fatalf("path %v crosses cliques badly", p)
				}
				crossed = true
			}
		}
		if !crossed {
			t.Fatalf("path %v never crosses to the destination clique", p)
		}
	})
	if seen != 4 {
		t.Fatalf("expected 4 load-balanced paths, got %d", seen)
	}
}

func TestSORNSingletonCliques(t *testing.T) {
	// k=1: no intra hops exist; routing degenerates to inter hop + final
	// (which collapses, since the landing is the destination clique's
	// only member).
	s, err := schedule.BuildSORN(schedule.SORNConfig{N: 8, Nc: 8, Q: 1})
	if err != nil {
		t.Fatal(err)
	}
	router := NewSORN(s)
	c := matching.Compile(s.Schedule)
	checkPathsValid(t, router, c, 8)
	checkRouteValid(t, router, c, 8, 6)
	router.Paths(nil, 0, 5, func(p Route, prob float64) {
		if p.Hops() != 1 {
			t.Fatalf("singleton-clique path %v should be direct", p)
		}
	})
}

func TestSORNSingleClique(t *testing.T) {
	s, err := schedule.BuildSORN(schedule.SORNConfig{N: 8, Nc: 1, Q: 1})
	if err != nil {
		t.Fatal(err)
	}
	router := NewSORN(s)
	if router.MaxHops() != 2 {
		t.Fatalf("single-clique SORN MaxHops = %d, want 2 (pure VLB)", router.MaxHops())
	}
	c := matching.Compile(s.Schedule)
	checkPathsValid(t, router, c, 8)
	checkRouteValid(t, router, c, 8, 7)
}

// TestRouteSamplesPathsDistribution is the contract the differential
// oracle depends on: for every router, RouteInto's empirical path frequencies
// must match the distribution Paths declares — identical support, each
// path within 5σ of its probability. The slot argument must not shift
// the distribution (the regression this guards: relays chosen from the
// slot correlate with slot-correlated arrivals and break the Valiant
// throughput guarantee).
func TestRouteSamplesPathsDistribution(t *testing.T) {
	const trials = 20000
	for _, router := range routersUnderTest(t) {
		r := rng.New(11)
		for _, pair := range [][2]int{{0, 1}, {0, 5}, {3, 12}, {7, 2}, {15, 4}} {
			src, dst := pair[0], pair[1]
			want := make(map[string]float64)
			router.Paths(nil, src, dst, func(p Route, prob float64) {
				want[fmt.Sprint(p)] += prob
			})
			got := make(map[string]int)
			for i := 0; i < trials; i++ {
				got[fmt.Sprint(router.RouteInto(nil, src, dst, i%37, r))]++
			}
			for k := range got {
				if want[k] == 0 {
					t.Fatalf("%s %d->%d: Route produced %s outside the Paths support",
						router.Name(), src, dst, k)
				}
			}
			for k, p := range want {
				f := float64(got[k]) / trials
				sigma := math.Sqrt(p * (1 - p) / trials)
				if math.Abs(f-p) > 5*sigma+1e-12 {
					t.Errorf("%s %d->%d: path %s frequency %.4f, probability %.4f (5σ=%.4f)",
						router.Name(), src, dst, k, f, p, 5*sigma)
				}
			}
		}
	}
}

func TestRouteHopsPositive(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		s, err := schedule.BuildSORN(schedule.SORNConfig{N: 16, Nc: 4, Q: 1 + r.Float64()*5})
		if err != nil {
			return false
		}
		router := NewSORN(s)
		src := r.Intn(16)
		dst := r.Intn(16)
		if src == dst {
			return true
		}
		p := router.RouteInto(nil, src, dst, r.Intn(100), r)
		return p.Hops() >= 1 && p.Hops() <= 3
	}, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkSORNRoute(b *testing.B) {
	s, err := schedule.BuildSORN(schedule.SORNConfig{N: 128, Nc: 8, Q: 4.5})
	if err != nil {
		b.Fatal(err)
	}
	router := NewSORN(s)
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		router.RouteInto(nil, i%128, (i+37)%128, i, r)
	}
}

func BenchmarkVLBRoute(b *testing.B) {
	v, err := NewVLB(matching.RoundRobin(128))
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.RouteInto(nil, i%128, (i+37)%128, i, r)
	}
}

func TestSORNRouterOverDemandAwareSchedules(t *testing.T) {
	// The SORN router's assumptions (full intra coverage, same-local
	// landing in every clique) must hold on demand-aware (BvN) schedules
	// for arbitrary demand matrices.
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		nc := 3 + r.Intn(4)
		k := 2 + r.Intn(4)
		n := nc * k
		demand := make([][]float64, nc)
		for a := range demand {
			demand[a] = make([]float64, nc)
			for b := range demand[a] {
				if a != b {
					demand[a][b] = 0.2 + 5*r.Float64()
				}
			}
		}
		s, err := schedule.BuildSORNDemandAware(schedule.DemandAwareConfig{
			N: n, Nc: nc, Q: 1 + 4*r.Float64(), Demand: demand,
		})
		if err != nil {
			return false
		}
		router := NewSORN(s)
		c := matching.Compile(s.Schedule)
		for trial := 0; trial < 50; trial++ {
			src, dst := r.Intn(n), r.Intn(n)
			if src == dst {
				continue
			}
			p := router.RouteInto(nil, src, dst, r.Intn(2*s.Schedule.Period()), r)
			if p[0] != src || p[len(p)-1] != dst || p.Hops() > 3 {
				return false
			}
			for i := 0; i+1 < len(p); i++ {
				if !c.HasCircuit(p[i], p[i+1]) {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// testRouter is a router under test with the compiled schedule it
// routes over.
type testRouter struct {
	Router
	c *matching.Compiled
}

// routersUnderTest builds one router of each scheme over 16 nodes, plus
// the oracle's relabel wrapper around SORN, for tests that must hold
// across every Router implementation.
func routersUnderTest(t *testing.T) []testRouter {
	t.Helper()
	rr := matching.Compile(matching.RoundRobin(16))
	direct, err := NewDirect(rr.Schedule())
	if err != nil {
		t.Fatal(err)
	}
	vlb, err := NewVLB(rr.Schedule())
	if err != nil {
		t.Fatal(err)
	}
	orn, err := schedule.BuildOptimalORN(16, 2)
	if err != nil {
		t.Fatal(err)
	}
	sorn, err := schedule.BuildSORN(schedule.SORNConfig{N: 16, Nc: 4, Q: 2})
	if err != nil {
		t.Fatal(err)
	}
	perm := make([]int, 16)
	for u := range perm {
		perm[u] = (5*u + 3) % 16
	}
	relSched, err := sorn.Schedule.Relabel(perm)
	if err != nil {
		t.Fatal(err)
	}
	relabeled, err := NewRelabeled(NewSORN(sorn), perm)
	if err != nil {
		t.Fatal(err)
	}
	return []testRouter{
		{direct, rr},
		{vlb, rr},
		{NewORN(orn), matching.Compile(orn.Schedule)},
		{NewSORN(sorn), matching.Compile(sorn.Schedule)},
		{relabeled, matching.Compile(relSched)},
	}
}

func TestEveryRouterPathsAndRoutesValid(t *testing.T) {
	for i, router := range routersUnderTest(t) {
		checkPathsValid(t, router, router.c, 16)
		checkRouteValid(t, router, router.c, 16, uint64(20+i))
	}
}

func TestRouteIntoReusedBufferMatchesNil(t *testing.T) {
	// Filling a reused buffer must give exactly the route filling a nil
	// one does: the simulator reuses one buffer per shard, while tests
	// and the oracle pass nil. ORN draws randomness, so each side gets
	// its own identically seeded stream; a third stream picks the
	// coordinates.
	const n = 16
	for _, router := range routersUnderTest(t) {
		coords := rng.New(90)
		r1 := rng.New(91)
		r2 := rng.New(91)
		buf := make(Route, 0, 2*router.MaxHops())
		for trial := 0; trial < 300; trial++ {
			src := coords.Intn(n)
			dst := coords.Intn(n)
			if dst == src {
				dst = (src + 1) % n
			}
			slot := coords.Intn(200)
			want := router.RouteInto(nil, src, dst, slot, r1)
			buf = router.RouteInto(buf[:0], src, dst, slot, r2)
			if !slices.Equal(buf, want) {
				t.Fatalf("%s: RouteInto(%d,%d,%d) = %v into a reused buffer, %v into nil",
					router.Name(), src, dst, slot, buf, want)
			}
		}
	}
}

func TestRouteIntoDoesNotAllocate(t *testing.T) {
	// The simulator calls RouteInto once per injected cell; with a
	// pre-grown buffer it must not allocate at all.
	for _, router := range routersUnderTest(t) {
		router := router
		r := rng.New(92)
		buf := make(Route, 0, 2*router.MaxHops()+2)
		if avg := testing.AllocsPerRun(200, func() {
			buf = router.RouteInto(buf[:0], 0, 15, 3, r)
		}); avg != 0 {
			t.Errorf("%s: RouteInto allocates %.1f per call with a warm buffer", router.Name(), avg)
		}
	}
}

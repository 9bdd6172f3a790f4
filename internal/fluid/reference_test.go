package fluid

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/matching"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/schedule"
	"repro/internal/workload"
)

// refLinkLoads is the reference accumulation Router.AddLoads must
// reproduce bit for bit: every path of Paths, in src, dst, Paths, hop
// order, adds rate·prob to each hop's link (at load[u·n+v]) and
// rate·prob·hops to the hop total. Each hop is range-checked, so a
// router that leaves [0, n) is an error here rather than a panic.
func refLinkLoads(router routing.Router, tm *workload.Matrix) (load []float64, hopWeighted, demandTotal float64, err error) {
	n := tm.N
	load = make([]float64, n*n)
	var rate float64
	visit := func(p routing.Route, prob float64) {
		hopWeighted += rate * prob * float64(p.Hops())
		for i := 0; i+1 < len(p); i++ {
			u, v := p[i], p[i+1]
			if uint(u) >= uint(n) || uint(v) >= uint(n) {
				err = fmt.Errorf("fluid: router %s uses link %d->%d outside %d nodes", router.Name(), u, v, n)
				return
			}
			load[u*n+v] += rate * prob
		}
	}
	buf := make(routing.Route, 0, router.MaxHops()+1)
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			rate = tm.Rates[src][dst]
			if rate <= 0 {
				continue
			}
			demandTotal += rate
			buf = router.Paths(buf, src, dst, visit)
			if err != nil {
				return nil, 0, 0, err
			}
		}
	}
	return load, hopWeighted, demandTotal, nil
}

// refSolve is Solve over refLinkLoads.
func refSolve(s *matching.Schedule, router routing.Router, tm *workload.Matrix) (*Result, error) {
	if tm.N != s.N || router.N() != s.N {
		return nil, fmt.Errorf("fluid: size mismatch")
	}
	if err := tm.Validate(); err != nil {
		return nil, err
	}
	load, hopWeighted, demandTotal, err := refLinkLoads(router, tm)
	if err != nil {
		return nil, err
	}
	if demandTotal == 0 {
		return nil, fmt.Errorf("fluid: traffic matrix is empty")
	}
	return bottleneck(s, router, load, s.N, hopWeighted, demandTotal)
}

// checkMatchesPaths holds Solve and linkLoads to the Paths reference on
// one instance: every load, the hop and demand totals and every Result
// field must be bit-identical, the row padding must stay zero, and the
// two must agree on whether the instance is an error.
func checkMatchesPaths(t *testing.T, name string, s *matching.Schedule, router routing.Router, tm *workload.Matrix) {
	t.Helper()
	got, gotErr := Solve(s, router, tm)
	want, wantErr := refSolve(s, router, tm)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%s: Solve error %v, reference error %v", name, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if toGolden(got) != toGolden(want) {
		t.Fatalf("%s: Solve %+v, reference %+v", name, *got, *want)
	}
	n := tm.N
	stride := loadStride(n)
	load, hw, total := linkLoads(router, tm, stride)
	refLoad, refHW, refTotal, _ := refLinkLoads(router, tm)
	if math.Float64bits(hw) != math.Float64bits(refHW) || math.Float64bits(total) != math.Float64bits(refTotal) {
		t.Fatalf("%s: hop total %v and demand %v, reference %v and %v", name, hw, total, refHW, refTotal)
	}
	for u := 0; u < n; u++ {
		for v := 0; v < stride; v++ {
			l := load[u*stride+v]
			want := 0.0
			if v < n {
				want = refLoad[u*n+v]
			}
			if math.Float64bits(l) != math.Float64bits(want) {
				t.Fatalf("%s: load[%d][%d] = %v, reference %v", name, u, v, l, want)
			}
		}
	}
}

// fuzzInstance builds a small solve instance from fuzz inputs: kind
// picks the router (SORN over equal cliques, SORN over arbitrary
// cliques including singletons, VLB, Direct, ORN with H ∈ {1, 2, 3},
// or any of them relabeled), size and param shape it, and seed draws
// the traffic matrix and any random structure. Every instance has at
// most 64 nodes.
func fuzzInstance(kind, size, param uint8, seed uint64) (string, *matching.Schedule, routing.Router, *workload.Matrix, error) {
	r := rng.New(seed)
	relabel := kind >= 5
	var (
		s      *matching.Schedule
		router routing.Router
		name   string
	)
	switch kind % 5 {
	case 0: // SORN over nc equal cliques of k nodes, Nc = 1 and k = 1 included
		nc, k := int(size%8)+1, int(size/8%8)+1
		if nc*k < 2 {
			k = 2
		}
		q := 0.25 + float64(param%32)/4
		built, err := schedule.BuildSORN(schedule.SORNConfig{N: nc * k, Nc: nc, Q: q})
		if err != nil {
			return "", nil, nil, nil, err
		}
		name = fmt.Sprintf("sorn-n%d-nc%d-q%v", nc*k, nc, q)
		s, router = built.Schedule, routing.NewSORN(built)
	case 1: // SORN over arbitrary cliques, routed over a full round robin
		n := int(size%63) + 2
		nc := int(param)%n + 1
		assign := make([]int, n)
		for u := range assign {
			assign[u] = u % nc
		}
		r.Shuffle(assign)
		cl, err := schedule.NewCliques(assign)
		if err != nil {
			return "", nil, nil, nil, err
		}
		s = matching.RoundRobin(n)
		name = fmt.Sprintf("sorn-hetero-n%d-nc%d", n, nc)
		router = routing.NewSORN(&schedule.SORN{Cliques: cl, Schedule: s})
	case 2, 3:
		n := int(size%63) + 2
		s = matching.RoundRobin(n)
		var err error
		if kind%5 == 2 {
			router, err = routing.NewVLB(s)
		} else {
			router, err = routing.NewDirect(s)
		}
		if err != nil {
			return "", nil, nil, nil, err
		}
		name = fmt.Sprintf("%s-n%d", router.Name(), n)
	case 4: // ORN with H digits of base a, a^H ≤ 64
		h := int(param%3) + 1
		maxBase := []int{64, 8, 4}[h-1]
		a := int(size)%(maxBase-1) + 2
		n := 1
		for i := 0; i < h; i++ {
			n *= a
		}
		o, err := schedule.BuildOptimalORN(n, h)
		if err != nil {
			return "", nil, nil, nil, err
		}
		name = fmt.Sprintf("orn-n%d-h%d", n, h)
		s, router = o.Schedule, routing.NewORN(o)
	}
	if relabel {
		perm := r.Perm(s.N)
		var err error
		if s, err = s.Relabel(perm); err != nil {
			return "", nil, nil, nil, err
		}
		if router, err = routing.NewRelabeled(router, perm); err != nil {
			return "", nil, nil, nil, err
		}
		name += "+relabel"
	}
	// A random valid matrix: each off-diagonal rate is zero with
	// probability 1/4, else uniform in (0, 1).
	tm := workload.NewMatrix(s.N)
	for src, row := range tm.Rates {
		for dst := range row {
			if src != dst && r.Intn(4) != 0 {
				row[dst] = 1 - r.Float64()
			}
		}
	}
	return name, s, router, tm, nil
}

// FuzzSolveMatchesPaths: on random small instances of every router,
// Solve's AddLoads accumulation must equal the Paths reference bit for
// bit. An input the builders reject is skipped.
func FuzzSolveMatchesPaths(f *testing.F) {
	for kind := uint8(0); kind < 10; kind++ {
		for _, sp := range [][2]uint8{{0, 0}, {3, 7}, {7, 1}, {12, 2}, {27, 5}, {62, 30}, {63, 200}} {
			f.Add(kind, sp[0], sp[1], uint64(kind)*31+uint64(sp[0]))
		}
	}
	f.Fuzz(func(t *testing.T, kind, size, param uint8, seed uint64) {
		name, s, router, tm, err := fuzzInstance(kind%10, size, param, seed)
		if err != nil {
			t.Skip(err)
		}
		checkMatchesPaths(t, name, s, router, tm)
	})
}

// TestSolveMatchesPathsGolden runs the Paths reference over the golden
// instances (N = 64 and 128, the production routers).
func TestSolveMatchesPathsGolden(t *testing.T) {
	for _, c := range goldenCases(t) {
		checkMatchesPaths(t, c.name, c.s, c.r, c.tm)
	}
}

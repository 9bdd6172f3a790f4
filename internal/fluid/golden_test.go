package fluid

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/matching"
	"repro/internal/model"
	"repro/internal/routing"
	"repro/internal/schedule"
	"repro/internal/workload"
)

// solveCase is one (schedule, router, traffic matrix) fluid instance.
type solveCase struct {
	name string
	s    *matching.Schedule
	r    routing.Router
	tm   *workload.Matrix
}

// sornCase builds SORN at N=128, Nc=8 with the core q*(x) clamp and the
// locality traffic matrix at x.
func sornCase(t *testing.T, x float64) solveCase {
	t.Helper()
	built, err := schedule.BuildSORN(schedule.SORNConfig{N: 128, Nc: 8, Q: model.SORNQClamped(x, 16)})
	if err != nil {
		t.Fatal(err)
	}
	tm, err := workload.Locality(built.Cliques, x)
	if err != nil {
		t.Fatal(err)
	}
	return solveCase{fmt.Sprintf("sorn-x%.2f", x), built.Schedule, routing.NewSORN(built), tm}
}

// goldenCases covers every Router implementation Solve sees in
// production: SORN across the locality range, VLB and the 2D ORN under
// uniform traffic, and the heterogeneous-clique schedule.
func goldenCases(t *testing.T) []solveCase {
	t.Helper()
	var cases []solveCase
	for _, x := range []float64{0, 0.25, 0.5, 0.75, 1} {
		cases = append(cases, sornCase(t, x))
	}
	rr := matching.RoundRobin(128)
	vlb, err := routing.NewVLB(rr)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, solveCase{"vlb-uniform", rr, vlb, workload.Uniform(128)})
	orn, err := schedule.BuildOptimalORN(64, 2)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, solveCase{"orn2d-uniform", orn.Schedule, routing.NewORN(orn), workload.Uniform(64)})
	h, err := schedule.BuildHetero([]int{16, 8, 8}, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	htm, err := workload.Locality(h.Physical, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, solveCase{"hetero", h.Built.Schedule, routing.NewSORN(h.Built), htm})
	return cases
}

// goldenResult is a Result with every float as its IEEE-754 bits.
type goldenResult struct {
	theta, load, cap, meanHops uint64
	links, src, dst            int
}

func toGolden(r *Result) goldenResult {
	return goldenResult{
		theta: math.Float64bits(r.Theta), load: math.Float64bits(r.BottleneckLoad),
		cap: math.Float64bits(r.BottleneckCap), meanHops: math.Float64bits(r.MeanHops),
		links: r.LinkCount, src: r.BottleneckSrc, dst: r.BottleneckDst,
	}
}

// TestSolveGolden pins Solve's results bit for bit. The accumulation
// order (src, then dst, then path in Paths order, then hop) fixes every
// float sum, so any change to how loads are stored or visited must leave
// these bits alone.
func TestSolveGolden(t *testing.T) {
	// Captured from the nested-matrix solver this one replaced.
	want := map[string]goldenResult{
		"sorn-x0.00":    {0x3fd5555555555552, 0x3fc2492492492495, 0x3fa8618618618618, 0x4006ffffffffb4c2, 2816, 0, 16},
		"sorn-x0.25":    {0x3fd7555555555542, 0x3fbb6db6db6db6f2, 0x3fa4000000000000, 0x40051dddddde0992, 2816, 0, 16},
		"sorn-x0.50":    {0x3fd9999999999996, 0x3fb2492492492495, 0x3f9d41d41d41d41d, 0x40033bbbbbbb909b, 2816, 0, 16},
		"sorn-x0.75":    {0x3fdc54fefcf6e4a9, 0x3fa2492492492495, 0x3f903091b51f5e1a, 0x400159999999be7e, 2816, 0, 16},
		"sorn-x1.00":    {0x3fdf2a11cd8bcd07, 0x3fc07f6e5d4c3b2a, 0x3fb0112358e75d30, 0x3ffeeeeeeeeef29a, 1920, 0, 1},
		"vlb-uniform":   {0x3fe0103091b51f7e, 0x3f900fffbefcf7cc, 0x3f80204081020408, 0x3fffdfbf7f039b64, 16256, 0, 1},
		"orn2d-uniform": {0x3fd24924924924a4, 0x3fcfffffffffffe1, 0x3fb2492492492492, 0x400c000000004c11, 896, 0, 1},
		"hetero":        {0x3fd5e26e7e0e0188, 0x3fd7e4b17e4b17eb, 0x3fc0572620ae4c41, 0x40025555555556a3, 320, 0, 8},
	}
	for _, c := range goldenCases(t) {
		res, err := Solve(c.s, c.r, c.tm)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got := toGolden(res)
		if w, ok := want[c.name]; !ok || got != w {
			t.Errorf("%s: got %#v (θ=%v), want %#v", c.name, got, res.Theta, w)
		}
	}
}

// TestSolveAllocatesPerPairNotPerPath bounds Solve's allocations on SORN
// at N=128: routers lend one path buffer per Paths call and the solver
// keeps flat per-link arrays, so a solve may allocate at most once per
// (src, dst) pair plus a constant, never once per path (up to N/Nc
// paths per pair here).
func TestSolveAllocatesPerPairNotPerPath(t *testing.T) {
	c := sornCase(t, 0.5)
	n := c.s.N
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Solve(c.s, c.r, c.tm); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(n*(n-1) + 64); allocs > limit {
		t.Fatalf("Solve made %.0f allocations at N=%d, want <= %.0f (one per pair plus 64)", allocs, n, limit)
	}
}

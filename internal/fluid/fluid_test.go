package fluid

import (
	"math"
	"testing"

	"repro/internal/matching"
	"repro/internal/model"
	"repro/internal/routing"
	"repro/internal/schedule"
	"repro/internal/workload"
)

func TestVLBUniformIsHalf(t *testing.T) {
	// Classic result: 2-hop VLB over a uniform round robin supports 50%
	// throughput for uniform all-to-all traffic. Our VLB collapses the
	// second hop when the random intermediate *is* the destination, so
	// the exact finite-n value is (n−1)/(2n−3), which tends to 1/2.
	n := 16
	s := matching.RoundRobin(n)
	v, err := routing.NewVLB(s)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(s, v, workload.Uniform(n))
	if err != nil {
		t.Fatal(err)
	}
	want := float64(n-1) / float64(2*n-3)
	if math.Abs(res.Theta-want) > 1e-9 {
		t.Fatalf("VLB uniform θ = %f, want %f", res.Theta, want)
	}
	if res.Theta < 0.5 {
		t.Fatalf("VLB uniform θ = %f below the 50%% guarantee", res.Theta)
	}
	if math.Abs(res.MeanHops-(2-1.0/15)) > 1e-9 {
		// Direct path with prob 1/(n-1), else 2 hops.
		t.Fatalf("mean hops = %f", res.MeanHops)
	}
}

func TestDirectUniformIsOne(t *testing.T) {
	// Direct routing on uniform traffic uses every circuit exactly at
	// capacity: θ = 1 (paper §2: single-hop is optimal for uniform).
	s := matching.RoundRobin(16)
	d, err := routing.NewDirect(s)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(s, d, workload.Uniform(16))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Theta-1) > 1e-9 {
		t.Fatalf("direct uniform θ = %f, want 1", res.Theta)
	}
}

func TestDirectPermutationCollapses(t *testing.T) {
	// Direct routing on a permutation matrix gets only the single
	// circuit's capacity, 1/(n-1): the reason oblivious designs need VLB.
	n := 16
	s := matching.RoundRobin(n)
	d, _ := routing.NewDirect(s)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = (i + 1) % n
	}
	tm, err := workload.Permutation(perm)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(s, d, tm)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Theta-1/float64(n-1)) > 1e-9 {
		t.Fatalf("direct permutation θ = %f, want %f", res.Theta, 1/float64(n-1))
	}
}

func TestVLBPermutationStillHalf(t *testing.T) {
	// VLB's guarantee: 50% even for adversarial permutations.
	n := 16
	s := matching.RoundRobin(n)
	v, _ := routing.NewVLB(s)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = (i + 1) % n
	}
	tm, _ := workload.Permutation(perm)
	res, err := Solve(s, v, tm)
	if err != nil {
		t.Fatal(err)
	}
	if res.Theta < 0.5-1e-9 {
		t.Fatalf("VLB permutation θ = %f, want >= 0.5", res.Theta)
	}
}

func TestORN2DUniformIsQuarter(t *testing.T) {
	o, err := schedule.BuildOptimalORN(64, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(o.Schedule, routing.NewORN(o), workload.Uniform(64))
	if err != nil {
		t.Fatal(err)
	}
	// Worst-case throughput of a 2D ORN is 25%; uniform traffic achieves
	// it up to the O(1/a) slack from digits that need no correction.
	if res.Theta < 0.25-1e-9 || res.Theta > 0.30 {
		t.Fatalf("2D ORN uniform θ = %f, want ~0.25", res.Theta)
	}
}

func TestSORNMatchesModelAcrossLocality(t *testing.T) {
	// The central quantitative claim (Fig. 2f): SORN at q*=2/(1-x)
	// supports r = 1/(3-x). The fluid solve over the real schedule and
	// router must match model.SORNThroughputAtQ at the *realized* integer
	// q, which itself is within a few percent of the ideal.
	const n, nc = 64, 8
	for _, x := range []float64{0, 0.2, 0.4, 0.56, 0.8} {
		q := model.SORNQ(x)
		built, err := schedule.BuildSORN(schedule.SORNConfig{N: n, Nc: nc, Q: q, MaxWeight: 64})
		if err != nil {
			t.Fatal(err)
		}
		tm, err := workload.Locality(built.Cliques, x)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Solve(built.Schedule, routing.NewSORN(built), tm)
		if err != nil {
			t.Fatal(err)
		}
		want := model.SORNThroughputAtQ(x, built.RealizedQ)
		// The fluid θ may exceed the conservative closed form slightly
		// (the model counts 2 intra traversals even when the LB hop or
		// final hop collapses) but never by much, and never fall below.
		if res.Theta < want-1e-9 {
			t.Errorf("x=%.2f: θ=%f below model bound %f", x, res.Theta, want)
		}
		if res.Theta > want*1.25 {
			t.Errorf("x=%.2f: θ=%f too far above model %f", x, res.Theta, want)
		}
		// And the headline: θ must be within 15%% of 1/(3−x).
		ideal := model.SORNThroughput(x)
		if math.Abs(res.Theta-ideal)/ideal > 0.15 {
			t.Errorf("x=%.2f: θ=%f vs ideal r=%f", x, res.Theta, ideal)
		}
	}
}

func TestSORNBeats2DORNThroughputWithLocality(t *testing.T) {
	// Figure 2(f)'s qualitative claim: SORN exceeds the 2D ORN's 25%
	// for every locality ratio, and approaches 1D ORN's 50% as x→1.
	built, err := schedule.BuildSORN(schedule.SORNConfig{N: 64, Nc: 8, Q: model.SORNQ(0)})
	if err != nil {
		t.Fatal(err)
	}
	tm, _ := workload.Locality(built.Cliques, 0)
	res, err := Solve(built.Schedule, routing.NewSORN(built), tm)
	if err != nil {
		t.Fatal(err)
	}
	if res.Theta <= 0.25 {
		t.Fatalf("SORN at x=0 gives θ=%f, should beat 2D ORN's 0.25", res.Theta)
	}
}

func TestMeanHopsSORN(t *testing.T) {
	// Mean hops ≈ 3 − x (paper: 2.44 average hops at x=0.56), slightly
	// less because collapsed hops (LB hop = src, landing = dst) shorten
	// some paths.
	built, _ := schedule.BuildSORN(schedule.SORNConfig{N: 64, Nc: 8, Q: model.SORNQ(0.56)})
	tm, _ := workload.Locality(built.Cliques, 0.56)
	res, err := Solve(built.Schedule, routing.NewSORN(built), tm)
	if err != nil {
		t.Fatal(err)
	}
	want := 3 - 0.56
	if math.Abs(res.MeanHops-want) > 0.25 {
		t.Fatalf("mean hops = %f, want ~%f", res.MeanHops, want)
	}
}

func TestSolveErrors(t *testing.T) {
	s := matching.RoundRobin(8)
	v, _ := routing.NewVLB(s)
	if _, err := Solve(s, v, workload.Uniform(4)); err == nil {
		t.Error("size mismatch accepted")
	}
	if _, err := Solve(s, v, workload.NewMatrix(8)); err == nil {
		t.Error("empty matrix accepted")
	}
	bad := workload.Uniform(8)
	bad.Rates[0][0] = 1
	if _, err := Solve(s, v, bad); err == nil {
		t.Error("invalid matrix accepted")
	}
}

func TestRouterUsingAbsentLinkRejected(t *testing.T) {
	// A direct router built over a full schedule, solved against a
	// partial schedule, must be rejected, not silently mis-accounted.
	full := matching.RoundRobin(8)
	d, _ := routing.NewDirect(full)
	partial := schedule.TopologyA().Schedule
	if _, err := Solve(partial, d, workload.Uniform(8)); err == nil {
		t.Error("router using absent links accepted")
	}
	// A router over more nodes than the schedule relays through nodes
	// the schedule does not have: an error, not an index panic.
	wide, _ := routing.NewVLB(matching.RoundRobin(16))
	if _, err := Solve(full, wide, workload.Uniform(8)); err == nil {
		t.Error("router using nodes outside the schedule accepted")
	}
}

func TestWorstCaseTheta(t *testing.T) {
	s := matching.RoundRobin(8)
	v, _ := routing.NewVLB(s)
	perm := make([]int, 8)
	for i := range perm {
		perm[i] = (i + 1) % 8
	}
	ptm, _ := workload.Permutation(perm)
	worst, err := WorstCaseTheta(s, v, []*workload.Matrix{workload.Uniform(8), ptm})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(worst-0.5) > 1e-9 {
		t.Fatalf("worst θ = %f", worst)
	}
	if _, err := WorstCaseTheta(s, v, nil); err == nil {
		t.Error("empty matrix set accepted")
	}
}

func TestBottleneckReported(t *testing.T) {
	s := matching.RoundRobin(8)
	v, _ := routing.NewVLB(s)
	res, err := Solve(s, v, workload.Uniform(8))
	if err != nil {
		t.Fatal(err)
	}
	if res.BottleneckSrc < 0 || res.BottleneckDst < 0 {
		t.Fatal("no bottleneck reported")
	}
	if res.BottleneckCap <= 0 || res.BottleneckLoad <= 0 {
		t.Fatal("bottleneck load/cap not populated")
	}
	if math.Abs(res.BottleneckCap/res.BottleneckLoad-res.Theta) > 1e-9 {
		t.Fatal("bottleneck inconsistent with theta")
	}
	if res.LinkCount == 0 {
		t.Fatal("no loaded links counted")
	}
}

func TestHeteroScheduleRoutableAndStructured(t *testing.T) {
	// Heterogeneous physical cliques (16, 8, 8) via the virtual-clique
	// reduction: the schedule must route a physical-locality workload,
	// and beat a uniform schedule that ignores the physical structure.
	h, err := schedule.BuildHetero([]int{16, 8, 8}, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := workload.Locality(h.Physical, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(h.Built.Schedule, routing.NewSORN(h.Built), tm)
	if err != nil {
		t.Fatal(err)
	}
	if res.Theta < 0.15 {
		t.Fatalf("hetero θ = %f implausibly low", res.Theta)
	}
	// Baseline: a demand-oblivious uniform virtual-clique schedule.
	uniform, err := schedule.BuildSORN(schedule.SORNConfig{N: 32, Nc: 4, Q: 3})
	if err != nil {
		t.Fatal(err)
	}
	uniRes, err := Solve(uniform.Schedule, routing.NewSORN(uniform), tm)
	if err != nil {
		t.Fatal(err)
	}
	if res.Theta <= uniRes.Theta {
		t.Fatalf("hetero θ=%f should beat structure-blind uniform θ=%f", res.Theta, uniRes.Theta)
	}
}

func TestCapacityExactMultiplesOfPeriod(t *testing.T) {
	// Capacities must be exact multiples of 1/period even when a link
	// repeats within a non-power-of-2 period. OperaLike(n, e) repeats
	// every matching e times over period (n−1)·e, so every link's
	// capacity must be bit-exactly float64(e)/float64((n−1)·e). The old
	// accumulation (e float adds of 1/period) drifts off that value.
	for _, tc := range []struct{ n, epoch int }{
		{4, 3}, {6, 5}, {8, 7}, {5, 9}, {10, 49},
	} {
		op, err := schedule.BuildOperaLike(tc.n, tc.epoch)
		if err != nil {
			t.Fatal(err)
		}
		s := op.Schedule
		d, err := routing.NewDirect(s)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Solve(s, d, workload.Uniform(tc.n))
		if err != nil {
			t.Fatal(err)
		}
		want := float64(tc.epoch) / float64(s.Period())
		if res.BottleneckCap != want {
			t.Errorf("n=%d epoch=%d: bottleneck cap = %.20g, want exactly %.20g",
				tc.n, tc.epoch, res.BottleneckCap, want)
		}
		// Every link carries load float64(1/(n−1)) under Direct+Uniform
		// and has capacity epoch/period = 1/(n−1) rounded identically,
		// so θ must be exactly 1.
		if res.Theta != 1 {
			t.Errorf("n=%d epoch=%d: Direct uniform θ = %.20g, want exactly 1",
				tc.n, tc.epoch, res.Theta)
		}
	}
}

// TestSolveAllocsConstant: a solve allocates exactly three objects (the
// loads, the slot-count scratch and the result), none per (src, dst)
// pair or path: Router.AddLoads accumulates without building a path, so
// N=128 allocates exactly as often as N=32.
func TestSolveAllocsConstant(t *testing.T) {
	allocs := func(n, nc int) float64 {
		built, err := schedule.BuildSORN(schedule.SORNConfig{N: n, Nc: nc, Q: 4.5})
		if err != nil {
			t.Fatal(err)
		}
		tm, err := workload.Locality(built.Cliques, 0.56)
		if err != nil {
			t.Fatal(err)
		}
		router := routing.NewSORN(built)
		return testing.AllocsPerRun(3, func() {
			if _, err := Solve(built.Schedule, router, tm); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(32, 4), allocs(128, 8)
	if small != 3 || large != 3 {
		t.Fatalf("Solve allocates %v times at N=32 and %v at N=128, want exactly 3", small, large)
	}
}

// narrowSORN is a SORN router over 16 nodes, for inputs over 32.
func narrowSORN(t *testing.T) *routing.SORN {
	t.Helper()
	built, err := schedule.BuildSORN(schedule.SORNConfig{N: 16, Nc: 4, Q: 2})
	if err != nil {
		t.Fatal(err)
	}
	return routing.NewSORN(built)
}

// TestSolveRejectsNarrowRouter: a router over fewer nodes than the
// schedule and matrix is an error, not an index panic inside Paths.
func TestSolveRejectsNarrowRouter(t *testing.T) {
	if _, err := Solve(matching.RoundRobin(32), narrowSORN(t), workload.Uniform(32)); err == nil {
		t.Fatal("Solve accepted a 16-node router over 32 nodes")
	}
}

// TestLinkBlastRadiusRejectsBadInput: a router narrower than n, or a
// failed link with an endpoint outside [0, n), is an error.
func TestLinkBlastRadiusRejectsBadInput(t *testing.T) {
	r := narrowSORN(t)
	if _, err := LinkBlastRadius(32, r, 0, 1); err == nil {
		t.Error("LinkBlastRadius accepted a 16-node router over 32 nodes")
	}
	for _, l := range [][2]int{{0, 16}, {16, 0}, {-1, 1}, {1, -1}} {
		if _, err := LinkBlastRadius(16, r, l[0], l[1]); err == nil {
			t.Errorf("LinkBlastRadius accepted failed link %d->%d over 16 nodes", l[0], l[1])
		}
	}
}

// TestNodeBlastRadiusRejectsBadInput: a router narrower than n, or a
// failed node outside [0, n), is an error.
func TestNodeBlastRadiusRejectsBadInput(t *testing.T) {
	r := narrowSORN(t)
	if _, err := NodeBlastRadius(32, r, 1); err == nil {
		t.Error("NodeBlastRadius accepted a 16-node router over 32 nodes")
	}
	for _, fail := range []int{16, -1} {
		if _, err := NodeBlastRadius(16, r, fail); err == nil {
			t.Errorf("NodeBlastRadius accepted failed node %d over 16 nodes", fail)
		}
	}
}

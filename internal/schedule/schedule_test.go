package schedule

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/matching"
	"repro/internal/rng"
)

func TestEqualCliques(t *testing.T) {
	cl, err := EqualCliques(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cl.N() != 8 || cl.NumCliques() != 2 {
		t.Fatalf("N=%d nc=%d", cl.N(), cl.NumCliques())
	}
	if cl.CliqueOf(3) != 0 || cl.CliqueOf(4) != 1 {
		t.Fatal("contiguous assignment wrong")
	}
	if !cl.SameClique(0, 3) || cl.SameClique(3, 4) {
		t.Fatal("SameClique wrong")
	}
	if cl.LocalIndex(5) != 1 {
		t.Fatalf("local index of 5 = %d", cl.LocalIndex(5))
	}
	if k, ok := cl.Uniform(); !ok || k != 4 {
		t.Fatalf("Uniform = %d,%v", k, ok)
	}
}

func TestEqualCliquesErrors(t *testing.T) {
	for _, c := range []struct{ n, nc int }{{7, 2}, {0, 1}, {8, 0}, {8, -1}} {
		if _, err := EqualCliques(c.n, c.nc); err == nil {
			t.Errorf("EqualCliques(%d,%d) accepted", c.n, c.nc)
		}
	}
}

func TestNewCliquesErrors(t *testing.T) {
	if _, err := NewCliques(nil); err == nil {
		t.Error("empty assignment accepted")
	}
	if _, err := NewCliques([]int{0, -1}); err == nil {
		t.Error("negative clique accepted")
	}
	if _, err := NewCliques([]int{0, 2}); err == nil {
		t.Error("gap in clique ids accepted")
	}
}

func TestNewCliquesNonUniform(t *testing.T) {
	cl, err := NewCliques([]int{0, 0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cl.Uniform(); ok {
		t.Fatal("non-uniform partition reported uniform")
	}
	if cl.Size(0) != 3 || cl.Size(1) != 1 {
		t.Fatal("sizes wrong")
	}
}

func TestBuildSORNTopologyA(t *testing.T) {
	// Paper Figure 2(d): 8 nodes, 2 cliques of 4, q=3 -> 4-slot schedule,
	// intra-clique bandwidth 3x inter-clique.
	a := TopologyA()
	if a.Schedule.Period() != 4 {
		t.Fatalf("topology A period = %d, want 4", a.Schedule.Period())
	}
	if a.RealizedQ != 3 {
		t.Fatalf("topology A realized q = %f, want 3", a.RealizedQ)
	}
	// Node 0's intra circuits (to 1,2,3) each get 1/4 of slots; its one
	// inter slot reaches clique 1.
	intra := 0.0
	for _, v := range []int{1, 2, 3} {
		intra += a.Schedule.LinkFraction(0, v)
	}
	if math.Abs(intra-0.75) > 1e-9 {
		t.Fatalf("intra fraction = %f, want 0.75", intra)
	}
	inter := 0.0
	for v := 4; v < 8; v++ {
		inter += a.Schedule.LinkFraction(0, v)
	}
	if math.Abs(inter-0.25) > 1e-9 {
		t.Fatalf("inter fraction = %f, want 0.25", inter)
	}
}

func TestBuildSORNTopologyB(t *testing.T) {
	b := TopologyB()
	if b.Cliques.NumCliques() != 4 {
		t.Fatalf("topology B cliques = %d", b.Cliques.NumCliques())
	}
	if err := b.Schedule.Validate(); err != nil {
		t.Fatal(err)
	}
	// q=1: intra and inter each get half the slots.
	intra := b.Schedule.LinkFraction(0, 1)
	if math.Abs(intra-0.5) > 1e-9 {
		t.Fatalf("intra fraction to clique partner = %f, want 0.5", intra)
	}
}

func TestBuildSORNFractions(t *testing.T) {
	cases := []struct {
		n, nc int
		q     float64
	}{
		{64, 8, 2}, {64, 8, 4.5454}, {128, 8, 3}, {32, 4, 1}, {16, 2, 2.5},
	}
	for _, c := range cases {
		s, err := BuildSORN(SORNConfig{N: c.n, Nc: c.nc, Q: c.q})
		if err != nil {
			t.Fatalf("BuildSORN(%+v): %v", c, err)
		}
		if err := s.Schedule.Validate(); err != nil {
			t.Fatalf("BuildSORN(%+v): invalid schedule: %v", c, err)
		}
		// Realized q within 10% of requested (integer weights).
		if math.Abs(s.RealizedQ-c.q)/c.q > 0.10 {
			t.Errorf("n=%d nc=%d q=%f realized %f", c.n, c.nc, c.q, s.RealizedQ)
		}
		// Intra-clique share of node 0's slots = q/(q+1) of the period.
		intra := 0.0
		for _, v := range s.Cliques.Members(0) {
			if v != 0 {
				intra += s.Schedule.LinkFraction(0, v)
			}
		}
		want := s.RealizedQ / (s.RealizedQ + 1)
		if math.Abs(intra-want) > 1e-9 {
			t.Errorf("n=%d nc=%d q=%f intra share %f want %f", c.n, c.nc, c.q, intra, want)
		}
	}
}

func TestSORNIntraWaitMatchesDeltaM(t *testing.T) {
	// The schedule's realized worst-case wait for an intra-clique circuit
	// should be close to the paper's (q+1)/q * (N/Nc - 1).
	s, err := BuildSORN(SORNConfig{N: 128, Nc: 8, Q: 2})
	if err != nil {
		t.Fatal(err)
	}
	c := matching.Compile(s.Schedule)
	k := 128 / 8
	theory := (s.RealizedQ + 1) / s.RealizedQ * float64(k-1)
	for _, v := range []int{1, 5, 15} {
		w, ok := c.MaxWait(0, v)
		if !ok {
			t.Fatalf("no intra circuit 0->%d", v)
		}
		if float64(w) > theory*1.35+2 || float64(w) < theory*0.6 {
			t.Errorf("intra MaxWait(0,%d) = %d, theory %.1f", v, w, theory)
		}
	}
}

func TestSORNInterCliqueReachability(t *testing.T) {
	// Every node must have circuits to every other clique, and the wait
	// for *some* circuit into clique c should be ~ (q+1)(Nc-1).
	s, err := BuildSORN(SORNConfig{N: 64, Nc: 8, Q: 2})
	if err != nil {
		t.Fatal(err)
	}
	c := matching.Compile(s.Schedule)
	period := s.Schedule.Period()
	for node := 0; node < 64; node += 7 {
		for target := 0; target < 8; target++ {
			if target == s.Cliques.CliqueOf(node) {
				continue
			}
			found := false
			for _, v := range s.Cliques.Members(target) {
				if c.HasCircuit(node, v) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("node %d has no circuit into clique %d (period %d)", node, target, period)
			}
		}
	}
}

func TestSORNSingleClique(t *testing.T) {
	s, err := BuildSORN(SORNConfig{N: 8, Nc: 1, Q: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Schedule.FullCoverage() {
		t.Fatal("single-clique SORN should be a full round robin")
	}
	if s.Schedule.Period() != 7 {
		t.Fatalf("period = %d, want 7", s.Schedule.Period())
	}
	if !math.IsInf(s.RealizedQ, 1) {
		t.Fatalf("single clique q should be +Inf, got %f", s.RealizedQ)
	}
}

func TestSORNSingletonCliques(t *testing.T) {
	// k=1: all traffic is inter-clique; schedule is a clique-level round
	// robin, which for singleton cliques is a node-level round robin.
	s, err := BuildSORN(SORNConfig{N: 8, Nc: 8, Q: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Schedule.Period() != 7 {
		t.Fatalf("period = %d, want 7", s.Schedule.Period())
	}
	if !s.Schedule.FullCoverage() {
		t.Fatal("singleton-clique SORN should cover all pairs")
	}
}

func TestBuildSORNErrors(t *testing.T) {
	cases := []SORNConfig{
		{N: 7, Nc: 2, Q: 1},
		{N: 8, Nc: 0, Q: 1},
		{N: 8, Nc: 2, Q: 0},
		{N: 8, Nc: 2, Q: -3},
		{N: 1, Nc: 1, Q: 1},
		{N: 16, Nc: 4, Q: math.NaN()},
		{N: 16, Nc: 4, Q: math.Inf(1)},
		{N: 16, Nc: 4, Q: math.Inf(-1)},
	}
	for _, c := range cases {
		if _, err := BuildSORN(c); err == nil {
			t.Errorf("BuildSORN(%+v) accepted", c)
		}
	}
}

// TestBuildSORNWeights pins the integer weights realizing q. A huge
// finite q saturates at the weight cap, like q = maxW·(k−1)/(Nc−1),
// instead of overflowing the numerator search; every q the experiments
// and benchmarks build keeps its weights.
func TestBuildSORNWeights(t *testing.T) {
	huge, err := BuildSORN(SORNConfig{N: 16, Nc: 4, Q: 1e300})
	if err != nil {
		t.Fatal(err)
	}
	capped, err := BuildSORN(SORNConfig{N: 16, Nc: 4, Q: 32 * 3 / 3})
	if err != nil {
		t.Fatal(err)
	}
	if huge.RealizedQ != capped.RealizedQ || huge.WIntra != capped.WIntra || huge.WInter != capped.WInter {
		t.Errorf("q=1e300 realized q=%v (%d:%d), want the cap's q=%v (%d:%d)",
			huge.RealizedQ, huge.WIntra, huge.WInter, capped.RealizedQ, capped.WIntra, capped.WInter)
	}

	cases := []struct {
		n, nc, maxW    int
		q              float64
		wIntra, wInter int
	}{
		// Fig 2f at N=128, q* = min(2/(1−x), 16) for x = 0, 0.1, …, 1.
		{128, 8, 0, 2, 14, 15},
		{128, 8, 0, 2.2222222222222223, 28, 27},
		{128, 8, 0, 2.5, 7, 6},
		{128, 8, 0, 2.857142857142857, 4, 3},
		{128, 8, 0, 3.3333333333333335, 14, 9},
		{128, 8, 0, 4, 28, 15},
		{128, 8, 0, 5.000000000000001, 7, 3},
		{128, 8, 0, 6.666666666666668, 28, 9},
		{128, 8, 0, 10.000000000000002, 14, 3},
		{128, 8, 0, 16, 15, 2},
		// Fig 2f at N=32, x = 0, 0.5, 1.
		{32, 4, 0, 2, 6, 7},
		{32, 4, 0, 4, 12, 7},
		{32, 4, 0, 16, 27, 4},
		// The q sweep, gravity and blast-radius ablations.
		{64, 8, 0, 1, 1, 1},
		{64, 8, 0, 2, 2, 1},
		{64, 8, 0, 3, 3, 1},
		{64, 8, 0, 4, 4, 1},
		{64, 8, 0, 4.545454545454546, 32, 7},
		{64, 8, 0, 6, 6, 1},
		{64, 8, 0, 8, 8, 1},
		{64, 8, 0, 12, 12, 1},
		{64, 8, 0, 16, 16, 1},
		// Availability: the oblivious q=2 and SORN at x=0.6.
		{16, 4, 0, 2, 2, 1},
		{16, 4, 0, 5, 5, 1},
		// The Nc sweep's capped builds and the NIC-state scaling.
		{256, 8, 64, 4.545454545454546, 39, 38},
		{256, 16, 64, 4.545454545454546, 50, 11},
		{256, 32, 64, 4.545454545454546, 20, 1},
		{256, 64, 64, 4.545454545454546, 64, 1},
		{256, 128, 64, 4.545454545454546, 64, 1},
		{256, 4, 0, 4.545454545454546, 5, 23},
		{512, 8, 0, 4.545454545454546, 1, 2},
		{1024, 16, 0, 4.545454545454546, 13, 12},
		{2048, 32, 0, 4.545454545454546, 29, 13},
		{4096, 64, 0, 4.545454545454546, 32, 7},
	}
	for _, c := range cases {
		s, err := BuildSORN(SORNConfig{N: c.n, Nc: c.nc, Q: c.q, MaxWeight: c.maxW})
		if err != nil {
			t.Fatal(err)
		}
		if s.WIntra != c.wIntra || s.WInter != c.wInter {
			t.Errorf("N=%d Nc=%d maxW=%d q=%v: weights %d:%d, want %d:%d",
				c.n, c.nc, c.maxW, c.q, s.WIntra, s.WInter, c.wIntra, c.wInter)
		}
	}
}

func TestOptimalQ(t *testing.T) {
	q, r := OptimalQ(0.56)
	if math.Abs(q-2/0.44) > 1e-12 || math.Abs(r-1/2.44) > 1e-12 {
		t.Fatalf("OptimalQ(0.56) = %f,%f", q, r)
	}
	q, r = OptimalQ(0)
	if q != 2 || math.Abs(r-1.0/3) > 1e-12 {
		t.Fatalf("OptimalQ(0) = %f,%f", q, r)
	}
	q, r = OptimalQ(1)
	if !math.IsInf(q, 1) || r != 0.5 {
		t.Fatalf("OptimalQ(1) = %f,%f", q, r)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("OptimalQ(-0.1) did not panic")
		}
	}()
	OptimalQ(-0.1)
}

func TestOptimalORN(t *testing.T) {
	o, err := BuildOptimalORN(16, 2)
	if err != nil {
		t.Fatal(err)
	}
	if o.Base != 4 || o.Schedule.Period() != 6 {
		t.Fatalf("base=%d period=%d", o.Base, o.Schedule.Period())
	}
	// Each node's neighbors are exactly the nodes differing in one digit:
	// h*(a-1) = 6 of them.
	nb := o.Schedule.Neighbors(5)
	if len(nb) != 6 {
		t.Fatalf("node 5 has %d neighbors, want 6: %v", len(nb), nb)
	}
	d := o.Digits(11) // 11 = 2*4 + 3
	if d[0] != 3 || d[1] != 2 {
		t.Fatalf("Digits(11) = %v", d)
	}
}

func TestOptimalORN1DMatchesRoundRobin(t *testing.T) {
	o, err := BuildOptimalORN(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	rr := RoundRobin1D(8)
	if o.Schedule.Period() != rr.Period() {
		t.Fatalf("1D ORN period %d != round robin %d", o.Schedule.Period(), rr.Period())
	}
	for t1 := range rr.Slots {
		if !o.Schedule.Slots[t1].Equal(rr.Slots[t1]) {
			t.Fatalf("slot %d differs", t1)
		}
	}
}

func TestOptimalORNErrors(t *testing.T) {
	if _, err := BuildOptimalORN(15, 2); err == nil {
		t.Error("non-square n accepted for h=2")
	}
	if _, err := BuildOptimalORN(16, 0); err == nil {
		t.Error("h=0 accepted")
	}
	if _, err := BuildOptimalORN(1, 1); err == nil {
		t.Error("n=1 accepted")
	}
}

func TestOperaLike(t *testing.T) {
	o, err := BuildOperaLike(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if o.Schedule.Period() != 21 {
		t.Fatalf("period = %d, want 21", o.Schedule.Period())
	}
	// Within an epoch the matching is constant.
	if o.Schedule.DestAt(0, 0) != o.Schedule.DestAt(0, 2) {
		t.Fatal("matching changed within epoch")
	}
	if o.Schedule.DestAt(0, 2) == o.Schedule.DestAt(0, 3) {
		t.Fatal("matching did not advance at epoch boundary")
	}
	if _, err := BuildOperaLike(8, 0); err == nil {
		t.Error("epochLen=0 accepted")
	}
	if _, err := BuildOperaLike(1, 1); err == nil {
		t.Error("n=1 accepted")
	}
}

func TestInterleaveEvenSpacing(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		nstreams := 1 + r.Intn(6)
		weights := make([]int, nstreams)
		total := 0
		for i := range weights {
			weights[i] = 1 + r.Intn(8)
			total += weights[i]
		}
		order := interleave(weights)
		if len(order) != total {
			return false
		}
		counts := make([]int, nstreams)
		// Max gap between occurrences of stream i must be < 2*total/w + 2.
		last := make([]int, nstreams)
		for i := range last {
			last[i] = -1
		}
		maxGap := make([]int, nstreams)
		first := make([]int, nstreams)
		for pos, s := range order {
			counts[s]++
			if last[s] >= 0 {
				if g := pos - last[s]; g > maxGap[s] {
					maxGap[s] = g
				}
			} else {
				first[s] = pos
			}
			last[s] = pos
		}
		for i, w := range weights {
			if counts[i] != w {
				return false
			}
			wrap := first[i] + total - last[i]
			if wrap > maxGap[i] {
				maxGap[i] = wrap
			}
			if float64(maxGap[i]) > 2*float64(total)/float64(w)+2 {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestApproxRatio(t *testing.T) {
	cases := []struct {
		target float64
		maxW   int
	}{
		{1, 32}, {3, 32}, {0.5, 32}, {4.5454 * 7 / 63, 32}, {100, 8}, {0.001, 16},
	}
	for _, c := range cases {
		n, d := approxRatio(c.target, c.maxW)
		if n < 1 || d < 1 || n > c.maxW || d > c.maxW {
			t.Errorf("approxRatio(%f,%d) = %d/%d out of bounds", c.target, c.maxW, n, d)
		}
		got := float64(n) / float64(d)
		// Saturates at maxW for huge targets, floor 1/maxW for tiny ones.
		wantErr := math.Min(c.target, float64(c.maxW)) * 0.15
		if c.target >= 1.0/float64(c.maxW) && c.target <= float64(c.maxW) &&
			math.Abs(got-c.target) > wantErr+0.05 {
			t.Errorf("approxRatio(%f,%d) = %f", c.target, c.maxW, got)
		}
	}
}

func BenchmarkBuildOptimalORN(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := BuildOptimalORN(4096, 2); err != nil {
			b.Fatal(err)
		}
	}
}

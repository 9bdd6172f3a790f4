package workload

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/schedule"
)

func mustCliques(t *testing.T, n, nc int) *schedule.Cliques {
	t.Helper()
	cl, err := schedule.EqualCliques(n, nc)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func TestUniformMatrix(t *testing.T) {
	m := Uniform(8)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 8; s++ {
		if math.Abs(m.RowSum(s)-1) > 1e-12 || math.Abs(m.ColSum(s)-1) > 1e-12 {
			t.Fatalf("node %d row=%f col=%f", s, m.RowSum(s), m.ColSum(s))
		}
	}
	if m.MaxRowSum() > 1+1e-12 {
		t.Fatal("max row sum > 1")
	}
}

func TestLocalityMatrix(t *testing.T) {
	cl := mustCliques(t, 32, 4)
	for _, x := range []float64{0, 0.25, 0.56, 1} {
		m, err := Locality(cl, x)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}
		if got := m.IntraFraction(cl); math.Abs(got-x) > 1e-9 {
			t.Errorf("x=%f: intra fraction = %f", x, got)
		}
		for s := 0; s < 32; s++ {
			if math.Abs(m.RowSum(s)-1) > 1e-9 {
				t.Errorf("x=%f: row %d sums to %f", x, s, m.RowSum(s))
			}
		}
	}
	if _, err := Locality(cl, 1.5); err == nil {
		t.Error("x > 1 accepted")
	}
}

func TestLocalitySingletonCliques(t *testing.T) {
	cl := mustCliques(t, 8, 8)
	m, err := Locality(cl, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	// All demand must be inter-clique; rows still saturate.
	if m.IntraFraction(cl) != 0 {
		t.Fatal("singleton cliques should have zero intra traffic")
	}
	for s := 0; s < 8; s++ {
		if math.Abs(m.RowSum(s)-1) > 1e-9 {
			t.Fatalf("row %d sums to %f", s, m.RowSum(s))
		}
	}
}

func TestLocalitySingleClique(t *testing.T) {
	cl := mustCliques(t, 8, 1)
	m, err := Locality(cl, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.IntraFraction(cl)-1) > 1e-12 {
		t.Fatal("single clique must have all-intra traffic")
	}
}

func TestAggregate(t *testing.T) {
	cl := mustCliques(t, 16, 4)
	m, _ := Locality(cl, 0.5)
	agg := m.Aggregate(cl)
	// Diagonal should hold 0.5*4 = 2 units total per clique row.
	for c := 0; c < 4; c++ {
		if math.Abs(agg[c][c]-2) > 1e-9 {
			t.Errorf("agg[%d][%d] = %f, want 2", c, c, agg[c][c])
		}
		rowTotal := 0.0
		for d := 0; d < 4; d++ {
			rowTotal += agg[c][d]
		}
		if math.Abs(rowTotal-4) > 1e-9 {
			t.Errorf("clique %d sources %f, want 4", c, rowTotal)
		}
	}
}

func TestGravity(t *testing.T) {
	cl := mustCliques(t, 16, 4)
	m, err := Gravity(cl, []float64{4, 2, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 16; s++ {
		if math.Abs(m.RowSum(s)-1) > 1e-9 {
			t.Fatalf("row %d sums to %f", s, m.RowSum(s))
		}
	}
	// Clique 0 (mass 4) must attract roughly twice clique 1 (mass 2).
	agg := m.Aggregate(cl)
	col0, col1 := 0.0, 0.0
	for s := 0; s < 4; s++ {
		col0 += agg[s][0]
		col1 += agg[s][1]
	}
	if col0 < 1.5*col1 {
		t.Fatalf("gravity attraction wrong: col0=%f col1=%f", col0, col1)
	}
	if _, err := Gravity(cl, []float64{1, 2}); err == nil {
		t.Error("wrong mass count accepted")
	}
	if _, err := Gravity(cl, []float64{1, 2, 0, 1}); err == nil {
		t.Error("zero mass accepted")
	}
}

func TestHotspot(t *testing.T) {
	m, err := Hotspot(16, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Hot receivers attract far more than cold ones.
	if m.ColSum(0) < 2*m.ColSum(10) {
		t.Fatalf("hotspot not hot: col0=%f col10=%f", m.ColSum(0), m.ColSum(10))
	}
	for s := 0; s < 16; s++ {
		if math.Abs(m.RowSum(s)-1) > 1e-9 {
			t.Fatalf("row %d sums to %f", s, m.RowSum(s))
		}
	}
	if _, err := Hotspot(16, 0, 0.5); err == nil {
		t.Error("hot=0 accepted")
	}
	if _, err := Hotspot(16, 2, 1.5); err == nil {
		t.Error("frac>1 accepted")
	}
}

func TestPermutationMatrix(t *testing.T) {
	m, err := Permutation([]int{1, 2, 3, 0})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rates[0][1] != 1 || m.RowSum(0) != 1 {
		t.Fatal("permutation rates wrong")
	}
	if _, err := Permutation([]int{0, 1}); err == nil {
		t.Error("fixed point accepted")
	}
	if _, err := Permutation([]int{1, 1, 0}); err == nil {
		t.Error("duplicate accepted")
	}
}

func TestSampleDestDistribution(t *testing.T) {
	cl := mustCliques(t, 8, 2)
	m, _ := Locality(cl, 0.75)
	r := rng.New(5)
	intra := 0
	const draws = 100000
	for i := 0; i < draws; i++ {
		d := m.SampleDest(0, r)
		if d == 0 {
			t.Fatal("sampled self")
		}
		if cl.SameClique(0, d) {
			intra++
		}
	}
	got := float64(intra) / draws
	if math.Abs(got-0.75) > 0.01 {
		t.Fatalf("intra sample fraction = %f, want 0.75", got)
	}
}

func TestScaleAndClone(t *testing.T) {
	m := Uniform(4)
	c := m.Clone().Scale(0.5)
	if math.Abs(c.RowSum(0)-0.5) > 1e-12 {
		t.Fatal("scale wrong")
	}
	if math.Abs(m.RowSum(0)-1) > 1e-12 {
		t.Fatal("clone mutated original")
	}
}

func TestValidateCatchesBadMatrices(t *testing.T) {
	m := Uniform(4)
	m.Rates[1][1] = 0.5
	if m.Validate() == nil {
		t.Error("self traffic accepted")
	}
	m2 := Uniform(4)
	m2.Rates[0][1] = -1
	if m2.Validate() == nil {
		t.Error("negative rate accepted")
	}
	m3 := Uniform(4)
	m3.Rates[0][1] = math.NaN()
	if m3.Validate() == nil {
		t.Error("NaN accepted")
	}
}

func TestWebSearchDistribution(t *testing.T) {
	ws := WebSearch()
	r := rng.New(7)
	var sum float64
	var small int
	const n = 100000
	maxSeen := 0
	for i := 0; i < n; i++ {
		v := ws.Sample(r)
		if v < 1 || v > 20000 {
			t.Fatalf("websearch sample %d out of support", v)
		}
		if v <= 33 {
			small++
		}
		if v > maxSeen {
			maxSeen = v
		}
		sum += float64(v)
	}
	// ~60% of flows are <= 33 cells (CDF knot).
	if frac := float64(small) / n; math.Abs(frac-0.60) > 0.02 {
		t.Errorf("P(size<=33) = %f, want ~0.60", frac)
	}
	// Mean within 10% of the analytic CDF mean; heavy tail present.
	if mean := sum / n; math.Abs(mean-ws.MeanCells())/ws.MeanCells() > 0.1 {
		t.Errorf("sample mean %f vs analytic %f", mean, ws.MeanCells())
	}
	if maxSeen < 5000 {
		t.Errorf("heavy tail missing: max sample %d", maxSeen)
	}
}

func TestDataMiningDistribution(t *testing.T) {
	dm := DataMining()
	r := rng.New(8)
	ones := 0
	const n = 50000
	for i := 0; i < n; i++ {
		v := dm.Sample(r)
		if v < 1 {
			t.Fatalf("size %d < 1", v)
		}
		if v == 1 {
			ones++
		}
	}
	// Half the flows are single-cell.
	if frac := float64(ones) / n; math.Abs(frac-0.50) > 0.02 {
		t.Errorf("P(size==1) = %f, want ~0.50", frac)
	}
}

func TestBimodal(t *testing.T) {
	b := Bimodal{ShortCells: 10, BulkCells: 1000, ShortShare: 0.75}
	if math.Abs(b.MeanCells()-(0.75*10+0.25*1000)) > 1e-12 {
		t.Fatal("bimodal mean wrong")
	}
	r := rng.New(9)
	short := 0
	for i := 0; i < 10000; i++ {
		if b.Sample(r) == 10 {
			short++
		}
	}
	if math.Abs(float64(short)/10000-0.75) > 0.02 {
		t.Fatalf("short share = %f", float64(short)/10000)
	}
}

func TestPoissonFlowsRateAndOrdering(t *testing.T) {
	tm := Uniform(16)
	g, err := NewPoissonFlows(tm, FixedSize(10), 0.5, 11)
	if err != nil {
		t.Fatal(err)
	}
	flows := g.Window(0, 20000)
	if len(flows) == 0 {
		t.Fatal("no flows generated")
	}
	var cells float64
	prev := int64(-1)
	for _, f := range flows {
		if f.Arrival < prev {
			t.Fatal("flows not sorted by arrival")
		}
		prev = f.Arrival
		if f.Src == f.Dst {
			t.Fatal("self flow")
		}
		if f.Size != 10 {
			t.Fatal("size wrong")
		}
		cells += float64(f.Size)
	}
	// Offered load: 0.5 cells/slot/node * 16 nodes * 20000 slots.
	want := 0.5 * 16 * 20000
	if math.Abs(cells-want)/want > 0.05 {
		t.Fatalf("offered cells = %f, want ~%f", cells, want)
	}
}

func TestPoissonFlowsWindowContinuity(t *testing.T) {
	tm := Uniform(8)
	g, _ := NewPoissonFlows(tm, FixedSize(1), 0.3, 12)
	w1 := g.Window(0, 1000)
	w2 := g.Window(1000, 2000)
	for _, f := range w1 {
		if f.Arrival >= 1000 {
			t.Fatal("window 1 leaked late flow")
		}
	}
	for _, f := range w2 {
		if f.Arrival < 1000 || f.Arrival >= 2000 {
			t.Fatal("window 2 out of range")
		}
	}
	// IDs must be globally unique across windows.
	seen := map[int]bool{}
	for _, f := range append(w1, w2...) {
		if seen[f.ID] {
			t.Fatal("duplicate flow ID across windows")
		}
		seen[f.ID] = true
	}
}

func TestPoissonFlowsErrors(t *testing.T) {
	// +Inf load makes every inter-arrival gap zero, so Window would never
	// return; NaN load silently generated nothing.
	for _, load := range []float64{0, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := NewPoissonFlows(Uniform(4), FixedSize(1), load, 1); err == nil {
			t.Errorf("load %v accepted", load)
		}
	}
	bad := Uniform(4)
	bad.Rates[0][0] = 1
	if _, err := NewPoissonFlows(bad, FixedSize(1), 0.5, 1); err == nil {
		t.Error("invalid TM accepted")
	}
}

func TestMatrixPropertyRowSumsPreserved(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		nc := 1 + r.Intn(4)
		k := 1 + r.Intn(6)
		n := nc * k
		if n < 2 {
			return true
		}
		cl, err := schedule.EqualCliques(n, nc)
		if err != nil {
			return false
		}
		m, err := Locality(cl, r.Float64())
		if err != nil {
			return false
		}
		for s := 0; s < n; s++ {
			if math.Abs(m.RowSum(s)-1) > 1e-9 {
				return false
			}
		}
		return m.Validate() == nil
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestPairAffinity(t *testing.T) {
	cl := mustCliques(t, 32, 4)
	m, err := PairAffinity(cl, 0.3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 32; s++ {
		if math.Abs(m.RowSum(s)-1) > 1e-9 {
			t.Fatalf("row %d sums to %f", s, m.RowSum(s))
		}
	}
	if got := m.IntraFraction(cl); math.Abs(got-0.3) > 1e-9 {
		t.Fatalf("intra fraction %f", got)
	}
	// Node 0 (clique 0, partner clique 1): partner share is 0.5.
	toPartner := 0.0
	for _, d := range cl.Members(1) {
		toPartner += m.Rates[0][d]
	}
	if math.Abs(toPartner-0.5) > 1e-9 {
		t.Fatalf("partner share %f", toPartner)
	}
	// Aggregate matrix must be symmetric between partners.
	agg := m.Aggregate(cl)
	if math.Abs(agg[0][1]-agg[1][0]) > 1e-9 {
		t.Fatalf("partner aggregate asymmetric: %f vs %f", agg[0][1], agg[1][0])
	}
}

func TestPairAffinityErrors(t *testing.T) {
	cl4 := mustCliques(t, 32, 4)
	if _, err := PairAffinity(cl4, 0.7, 0.7); err == nil {
		t.Error("overflowing split accepted")
	}
	if _, err := PairAffinity(cl4, -0.1, 0.5); err == nil {
		t.Error("negative intra accepted")
	}
	clOdd, err := schedule.NewCliques([]int{0, 0, 1, 1, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PairAffinity(clOdd, 0.2, 0.5); err == nil {
		t.Error("odd clique count accepted")
	}
}

func TestFacebookLikeHelpers(t *testing.T) {
	d := FacebookLike()
	if d.MeanCells() <= 16 || d.MeanCells() >= 2000 {
		t.Fatalf("mean %f outside bimodal range", d.MeanCells())
	}
	cl := mustCliques(t, 32, 4)
	tm, err := FacebookLikeTM(cl)
	if err != nil {
		t.Fatal(err)
	}
	if got := tm.IntraFraction(cl); math.Abs(got-0.56) > 1e-9 {
		t.Fatalf("intra fraction %f, want 0.56", got)
	}
}

func TestSampleDestPanicsOnEmptyRow(t *testing.T) {
	m := NewMatrix(4)
	defer func() {
		if recover() == nil {
			t.Fatal("SampleDest on empty row did not panic")
		}
	}()
	m.SampleDest(0, rng.New(1))
}

func TestNewCappedPanicsOnBadCap(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewCapped(0) did not panic")
		}
	}()
	NewCapped(FixedSize(4), 0)
}

func TestCappedPreservesShortFlows(t *testing.T) {
	c := NewCapped(WebSearch(), 1333)
	r := rng.New(33)
	for i := 0; i < 10000; i++ {
		if v := c.Sample(r); v > 1333 || v < 1 {
			t.Fatalf("capped sample %d out of range", v)
		}
	}
	if c.Name() != "pfabric-websearch-cap1333" {
		t.Fatalf("name = %q", c.Name())
	}
}

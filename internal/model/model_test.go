package model

import (
	"math"
	"testing"
	"testing/quick"
)

// approx asserts relative closeness.
func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (±%v)", name, got, want, tol)
	}
}

func TestTable1ORN1DRow(t *testing.T) {
	r := ORN1D(Table1Params())
	if r.MaxHops != 2 || r.DeltaMSlots() != 4095 {
		t.Fatalf("hops=%d δm=%d", r.MaxHops, r.DeltaMSlots())
	}
	approx(t, "1D min latency µs", r.MinLatencyMicros(), 26.59, 0.01)
	approx(t, "1D throughput", r.Throughput, 0.5, 0)
	approx(t, "1D bw cost", r.BWCost, 2, 0)
}

func TestTable1ORN2DRow(t *testing.T) {
	r, err := ORN(Table1Params(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.MaxHops != 4 || r.DeltaMSlots() != 252 {
		t.Fatalf("hops=%d δm=%d", r.MaxHops, r.DeltaMSlots())
	}
	approx(t, "2D min latency µs", r.MinLatencyMicros(), 3.575, 0.01)
	approx(t, "2D throughput", r.Throughput, 0.25, 0)
	approx(t, "2D bw cost", r.BWCost, 4, 0)
}

func TestTable1OperaRows(t *testing.T) {
	rows := Opera(Table1Params(), DefaultOperaParams())
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	short, bulk := rows[0], rows[1]
	if short.MaxHops != 4 || short.DeltaMSlots() != 0 {
		t.Fatalf("short hops=%d δm=%d", short.MaxHops, short.DeltaMSlots())
	}
	approx(t, "opera short latency µs", short.MinLatencyMicros(), 2.0, 1e-9)
	if bulk.MaxHops != 2 || bulk.DeltaMSlots() != 4095 {
		t.Fatalf("bulk hops=%d δm=%d", bulk.MaxHops, bulk.DeltaMSlots())
	}
	// Paper prints 23,034 µs, omitting the (negligible) 1 µs propagation.
	approx(t, "opera bulk latency µs", bulk.MinLatencyMicros(), 23035.4, 0.1)
	approx(t, "opera throughput", bulk.Throughput, 0.3125, 0)
	approx(t, "opera bw cost", bulk.BWCost, 3.2, 0)
}

func TestTable1SORNRows(t *testing.T) {
	p := Table1Params()
	cases := []struct {
		nc                     int
		intraDM, interDM       int
		intraLatUS, interLatUS float64
	}{
		{64, 77, 364, 1.48, 3.78},
		{32, 155, 296, 1.97, 3.35},
	}
	for _, c := range cases {
		rows, err := SORN(p, SORNParams{Nc: c.nc, X: 0.56, TableVariant: true})
		if err != nil {
			t.Fatal(err)
		}
		intra, inter := rows[0], rows[1]
		if intra.MaxHops != 2 || inter.MaxHops != 3 {
			t.Fatalf("Nc=%d hops %d/%d", c.nc, intra.MaxHops, inter.MaxHops)
		}
		if intra.DeltaMSlots() != c.intraDM {
			t.Errorf("Nc=%d intra δm = %d, want %d", c.nc, intra.DeltaMSlots(), c.intraDM)
		}
		if inter.DeltaMSlots() != c.interDM {
			t.Errorf("Nc=%d inter δm = %d, want %d", c.nc, inter.DeltaMSlots(), c.interDM)
		}
		approx(t, "intra latency", intra.MinLatencyMicros(), c.intraLatUS, 0.01)
		approx(t, "inter latency", inter.MinLatencyMicros(), c.interLatUS, 0.01)
		approx(t, "throughput", intra.Throughput, 0.4098, 0.0001)
		approx(t, "bw cost", intra.BWCost, 2.44, 1e-9)
	}
}

func TestSORNTextVsTableVariant(t *testing.T) {
	// Document the paper's internal inconsistency: text formula gives a
	// larger inter-clique δm than the printed table.
	q := SORNQ(0.56)
	text := InterCliqueDeltaM(4096, 64, q)
	table := InterCliqueDeltaMTable(4096, 64, q)
	if text <= table {
		t.Fatalf("text δm %f should exceed table δm %f", text, table)
	}
	approx(t, "text inter δm", text, (q+1)*63+(q+1)/q*63, 1e-9)
	if int(math.Ceil(table-1e-9)) != 364 {
		t.Fatalf("table δm = %f, should ceil to 364", table)
	}
}

func TestSORNQAndThroughput(t *testing.T) {
	approx(t, "q*(0.56)", SORNQ(0.56), 2/0.44, 1e-12)
	approx(t, "r(0.56)", SORNThroughput(0.56), 1/2.44, 1e-12)
	approx(t, "r(0)", SORNThroughput(0), 1.0/3, 1e-12)
	approx(t, "r(1)", SORNThroughput(1), 0.5, 1e-12)
	if !math.IsInf(SORNQ(1), 1) {
		t.Fatal("q*(1) should be +Inf")
	}
	for name, x := range map[string]float64{"-1": -1, "NaN": math.NaN(), "+Inf": math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("SORNQ(%s) did not panic", name)
				}
			}()
			SORNQ(x)
		}()
	}
}

func TestSORNQClamped(t *testing.T) {
	// Below the clamp it is exactly q*; above, exactly the clamp — and
	// finite even at the x=1 divergence point.
	approx(t, "clamped q*(0.5)", SORNQClamped(0.5, 16), SORNQ(0.5), 1e-12)
	approx(t, "clamped q*(0.99)", SORNQClamped(0.99, 16), 16, 1e-12)
	approx(t, "clamped q*(1)", SORNQClamped(1, 16), 16, 1e-12)
	for name, maxQ := range map[string]float64{"0": 0, "-1": -1, "NaN": math.NaN(), "+Inf": math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("SORNQClamped with maxQ=%s did not panic", name)
				}
			}()
			SORNQClamped(0.5, maxQ)
		}()
	}
}

func TestSORNThroughputAtQOptimality(t *testing.T) {
	// r is maximized at q* = 2/(1-x): property test over x and q.
	if err := quick.Check(func(xi, qi uint8) bool {
		x := float64(xi%100) / 100
		qStar := SORNQ(x)
		rStar := SORNThroughputAtQ(x, qStar)
		q := 0.1 + float64(qi)
		return SORNThroughputAtQ(x, q) <= rStar+1e-12
	}, nil); err != nil {
		t.Error(err)
	}
	// At q*, r equals 1/(3-x).
	for _, x := range []float64{0, 0.25, 0.56, 0.9} {
		approx(t, "r at q*", SORNThroughputAtQ(x, SORNQ(x)), SORNThroughput(x), 1e-12)
	}
}

func TestSORNThroughputAtQEdges(t *testing.T) {
	// x = 1: inter bound vanishes, only the intra bound applies.
	approx(t, "r(1, q=8)", SORNThroughputAtQ(1, 8), 8.0/18, 1e-12)
	defer func() {
		if recover() == nil {
			t.Fatal("q<=0 did not panic")
		}
	}()
	SORNThroughputAtQ(0.5, 0)
}

func TestThroughputBounds(t *testing.T) {
	// r(x) must lie in [1/3, 1/2] and increase with x (paper §4).
	prev := 0.0
	for x := 0.0; x <= 1.0001; x += 0.01 {
		xx := math.Min(x, 1)
		r := SORNThroughput(xx)
		if r < 1.0/3-1e-12 || r > 0.5+1e-12 {
			t.Fatalf("r(%f) = %f outside [1/3, 1/2]", xx, r)
		}
		if r < prev {
			t.Fatalf("r not monotone at %f", xx)
		}
		prev = r
	}
}

func TestSORNErrors(t *testing.T) {
	p := Table1Params()
	if _, err := SORN(p, SORNParams{Nc: 1, X: 0.5}); err == nil {
		t.Error("Nc=1 accepted")
	}
	if _, err := SORN(p, SORNParams{Nc: 100, X: 0.5}); err == nil {
		t.Error("non-divisor Nc accepted")
	}
	if _, err := ORN(p, 0); err == nil {
		t.Error("h=0 accepted")
	}
}

func TestTable1Complete(t *testing.T) {
	rows, err := Table1(Table1Params(), 0.56, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("Table 1 has %d rows, want 8", len(rows))
	}
	// Headline comparisons the paper draws (§4): SORN throughput between
	// 2D and 1D ORN; SORN intra latency below 2D ORN and Opera short.
	var orn1d, orn2d, sornIntra64 Row
	for _, r := range rows {
		switch {
		case r.System == "Optimal ORN 1D (Sirius)":
			orn1d = r
		case r.System == "Optimal ORN 2D":
			orn2d = r
		case r.System == "SORN Nc=64" && r.Variant == "intra-clique":
			sornIntra64 = r
		}
	}
	if !(sornIntra64.Throughput > orn2d.Throughput && sornIntra64.Throughput < orn1d.Throughput) {
		t.Errorf("SORN throughput %f not between 2D %f and 1D %f",
			sornIntra64.Throughput, orn2d.Throughput, orn1d.Throughput)
	}
	if sornIntra64.MinLatencyNS >= orn2d.MinLatencyNS {
		t.Errorf("SORN intra latency %f not below 2D ORN %f",
			sornIntra64.MinLatencyNS, orn2d.MinLatencyNS)
	}
	if orn1d.MinLatencyNS < 10*sornIntra64.MinLatencyNS {
		t.Errorf("SORN should beat 1D ORN latency by an order of magnitude: %f vs %f",
			sornIntra64.MinLatencyNS, orn1d.MinLatencyNS)
	}
}

func TestSyncEfficiency(t *testing.T) {
	// Degenerate domain: no guard.
	if SyncEfficiency(1, 100, 5) != 1 {
		t.Fatal("single-node domain should have no guard")
	}
	// 16-node domain, 5 ns/level, 100 ns slots: 1 - 20/100 = 0.8.
	approx(t, "eff(16)", SyncEfficiency(16, 100, 5), 0.8, 1e-12)
	// Guard exceeding the slot floors at zero.
	if SyncEfficiency(1<<30, 10, 5) != 0 {
		t.Fatal("oversized guard should floor at 0")
	}
}

func TestSORNSyncEfficiencyBeatsFlat(t *testing.T) {
	// At 4096 nodes with 100 ns slots and 4 ns/level guards, the flat
	// design pays log2(4096)=12 levels on every slot; SORN pays the
	// clique guard on its q/(q+1) intra share.
	q := SORNQ(0.56)
	sorn := SORNSyncEfficiency(4096, 64, q, 100, 4)
	flat := SyncEfficiency(4096, 100, 4)
	if sorn <= flat {
		t.Fatalf("SORN sync efficiency %f not above flat %f", sorn, flat)
	}
	// Weighted combination must sit between the intra and global values.
	intra := SyncEfficiency(64, 100, 4)
	if sorn >= intra || sorn <= flat {
		t.Fatalf("weighted efficiency %f outside (%f, %f)", sorn, flat, intra)
	}
}

func TestDeltaMSlotsExactRationalTable1(t *testing.T) {
	// Table 1's SORN rows carry δm as exact rationals: x = 0.56 is the
	// decimal 14/25, so q* = 50/11, (q+1)/q = 61/50, and for Nc=64
	// intra δm = (61/50)·63 = 3843/50. The printed slot counts follow
	// by exact integer ceiling — no epsilon anywhere.
	for _, tc := range []struct {
		nc                     int
		intraNum, intraDen     int64
		interNum, interDen     int64
		intraSlots, interSlots int
	}{
		{64, 3843, 50, 199773, 550, 77, 364},
		{32, 7747, 50, 162717, 550, 155, 296},
	} {
		rows, err := SORN(Table1Params(), SORNParams{Nc: tc.nc, X: 0.56, TableVariant: true})
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range []struct {
			num, den int64
			slots    int
		}{
			{tc.intraNum, tc.intraDen, tc.intraSlots},
			{tc.interNum, tc.interDen, tc.interSlots},
		} {
			ex, ok := rows[i].DeltaMExact()
			if !ok {
				t.Fatalf("Nc=%d row %d: no exact δm", tc.nc, i)
			}
			if ex.Num().Int64() != want.num || ex.Denom().Int64() != want.den {
				t.Errorf("Nc=%d row %d: exact δm = %s, want %d/%d", tc.nc, i, ex, want.num, want.den)
			}
			if got := rows[i].DeltaMSlots(); got != want.slots {
				t.Errorf("Nc=%d row %d: δm slots = %d, want %d", tc.nc, i, got, want.slots)
			}
		}
	}
}

func TestDeltaMSlotsIntegerBoundary(t *testing.T) {
	// x = 0.5 → q* = 4, (q+1)/q = 5/4; with cliques of 5 (k−1 = 4) the
	// intra δm is exactly the integer 5 and the slot count must be 5,
	// not 6: the ceiling sits on the boundary and only exact arithmetic
	// answers it reliably. The text-variant inter δm is (4+1)·1+5 = 10.
	p := Params{N: 10, Uplinks: 1, SlotNS: 100, PropNS: 500}
	rows, err := SORN(p, SORNParams{Nc: 2, X: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	intra, ok := rows[0].DeltaMExact()
	if !ok || !intra.IsInt() || intra.Num().Int64() != 5 {
		t.Fatalf("intra δm exact = %v (ok=%v), want integer 5", intra, ok)
	}
	if rows[0].DeltaMSlots() != 5 {
		t.Fatalf("intra δm slots = %d, want exactly 5", rows[0].DeltaMSlots())
	}
	if rows[1].DeltaMSlots() != 10 {
		t.Fatalf("inter δm slots = %d, want exactly 10", rows[1].DeltaMSlots())
	}
}

func TestCeilCheckedFallback(t *testing.T) {
	// Rows without an exact rational use the checked float ceiling:
	// ulp-scale error around an integer is absorbed, genuine fractions
	// are not. The old Ceil(δm − 1e-9) fudge wrongly rounded δm = n+1e-9
	// down to n; the relative tolerance keeps the absorption at float
	// round-off scale across magnitudes.
	for _, tc := range []struct {
		dm   float64
		want int
	}{
		{5, 5},
		{math.Nextafter(5, math.Inf(1)), 5},
		{math.Nextafter(5, math.Inf(-1)), 5},
		{5 + 1e-9, 6}, // genuine fraction: old fudge returned 5
		{4.3, 5},      // plain ceiling
		{4095, 4095},  // Table-1 scale integer
		{4095 + 1e-9, 4096},
		{0, 0},
	} {
		r := Row{DeltaM: tc.dm} // no exact rational attached
		if got := r.DeltaMSlots(); got != tc.want {
			t.Errorf("DeltaMSlots(%v) = %d, want %d", tc.dm, got, tc.want)
		}
	}
}

func TestRatFromFloat(t *testing.T) {
	for _, tc := range []struct {
		v        float64
		num, den int64
	}{
		{0.56, 14, 25},
		{1.0 / 3, 1, 3},
		{1.0 / 7, 1, 7},
		{0.25, 1, 4},
		{63.0 / 4095, 1, 65}, // (k−1)/(N−1) style uniform rate
		{0, 0, 1},
		{-0.5, -1, 2},
		{42, 42, 1},
	} {
		r, ok := RatFromFloat(tc.v)
		if !ok {
			t.Fatalf("RatFromFloat(%v): no rational recovered", tc.v)
		}
		if r.Num().Int64() != tc.num || r.Denom().Int64() != tc.den {
			t.Errorf("RatFromFloat(%v) = %s, want %d/%d", tc.v, r, tc.num, tc.den)
		}
		if f, _ := r.Float64(); f != tc.v {
			t.Errorf("RatFromFloat(%v) does not round-trip: %v", tc.v, f)
		}
	}
	for name, v := range map[string]float64{"NaN": math.NaN(), "+Inf": math.Inf(1), "-Inf": math.Inf(-1)} {
		if _, ok := RatFromFloat(v); ok {
			t.Errorf("RatFromFloat(%s) unexpectedly succeeded", name)
		}
	}
}

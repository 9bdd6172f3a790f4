package experiments

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/model"
)

func TestFig2fShapeWithoutSim(t *testing.T) {
	cfg := DefaultFig2fConfig()
	cfg.RunSim = false
	cfg.N, cfg.Nc = 64, 8
	cfg.Step = 0.25
	pts, err := Fig2f(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 5 {
		t.Fatalf("%d points", len(pts))
	}
	prev := 0.0
	for _, p := range pts {
		if math.Abs(p.Theory-model.SORNThroughput(p.X)) > 1e-12 {
			t.Errorf("x=%f theory wrong", p.X)
		}
		// Fluid tracks theory within 15% and is monotone-ish increasing.
		if math.Abs(p.Fluid-p.Theory)/p.Theory > 0.15 {
			t.Errorf("x=%f fluid %f vs theory %f", p.X, p.Fluid, p.Theory)
		}
		if p.Fluid < prev-0.02 {
			t.Errorf("fluid series decreased at x=%f", p.X)
		}
		prev = p.Fluid
		if p.Sim != 0 {
			t.Errorf("sim ran despite RunSim=false")
		}
	}
}

func TestFig2fWithSimSinglePoint(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation point is slow")
	}
	cfg := DefaultFig2fConfig()
	cfg.N, cfg.Nc = 64, 8
	cfg.Step = 1.1 // the index grid always covers both endpoints: x=0 and x=1
	cfg.WarmupSlots, cfg.MeasureSlots, cfg.Backlog = 25000, 25000, 2048
	pts, err := Fig2f(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[0].X != 0 || pts[1].X != 1 {
		t.Fatalf("grid %+v, want endpoints {0, 1}", pts)
	}
	for _, p := range pts {
		if math.Abs(p.Sim-p.Theory)/p.Theory > 0.15 {
			t.Fatalf("x=%v sim %f too far from theory %f", p.X, p.Sim, p.Theory)
		}
	}
}

// TestFig2fHonoursZeroWarmup: WarmupSlots 0 measures from the first
// slot. It is not a sentinel for some default warmup, so it must differ
// from every positive warmup, the old 5000-slot default included.
func TestFig2fHonoursZeroWarmup(t *testing.T) {
	cfg := Fig2fConfig{N: 16, Nc: 4, Step: 1.1, RunSim: true, MeasureSlots: 200, Backlog: 64, SizeCap: 1333, Seed: 7, SweepWorkers: 1}
	cold, err := Fig2f(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.WarmupSlots = 5000
	warm, err := Fig2f(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cold {
		if cold[i].Sim == warm[i].Sim {
			t.Errorf("x=%v: warmup 0 and 5000 both measure r=%v", cold[i].X, cold[i].Sim)
		}
	}
}

func TestLocalityMismatchMargin(t *testing.T) {
	// Provisioning for x=0.5 and being wrong by ±0.2 must cost only a
	// bounded fraction of throughput — the §6 robustness claim.
	pts, err := LocalityMismatch(64, 8, []float64{0.5}, []float64{0.3, 0.5, 0.7}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var matched, low, high float64
	for _, p := range pts {
		switch p.XActual {
		case 0.5:
			matched = p.Fluid
		case 0.3:
			low = p.Fluid
		case 0.7:
			high = p.Fluid
		}
		// Fluid is never below the conservative model.
		if p.Fluid < p.Model-1e-9 {
			t.Errorf("fluid %f below model %f at (%f,%f)", p.Fluid, p.Model, p.XPlanned, p.XActual)
		}
	}
	// A ±0.2 locality estimation error costs at most ~30%% of throughput
	// (the §6 "healthy estimation error margin"), and over-estimation is
	// cheaper than under-estimation.
	if low < 0.65*matched || high < 0.65*matched {
		t.Fatalf("mismatch margin too brittle: matched=%f low=%f high=%f", matched, low, high)
	}
	if high < low {
		t.Fatalf("over-provisioned locality should degrade less: low=%f high=%f", low, high)
	}
}

func TestQSweepKneeAtOptimum(t *testing.T) {
	x := 0.5
	qStar := model.SORNQ(x) // 4
	pts, err := QSweep(64, 8, x, []float64{1, 2, qStar, 8, 12}, 1)
	if err != nil {
		t.Fatal(err)
	}
	best, bestQ := 0.0, 0.0
	for _, p := range pts {
		if p.Fluid > best {
			best, bestQ = p.Fluid, p.Q
		}
	}
	if math.Abs(bestQ-qStar) > 1.0 {
		t.Fatalf("best q = %f, want near q* = %f", bestQ, qStar)
	}
}

func TestNcSweepLatencySplit(t *testing.T) {
	p := model.Table1Params()
	rows, err := NcSweep(p, 0.56, []int{8, 16, 32, 64, 128, 256}, 256, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d rows", len(rows))
	}
	// More cliques -> smaller cliques -> lower intra latency, higher
	// inter latency.
	for i := 1; i < len(rows); i++ {
		if rows[i].IntraDM >= rows[i-1].IntraDM {
			t.Errorf("intra δm not decreasing at Nc=%d", rows[i].Nc)
		}
		if rows[i].InterDM <= rows[i-1].InterDM && rows[i].Nc > 32 {
			t.Errorf("inter δm not increasing at Nc=%d", rows[i].Nc)
		}
	}
	// Built-schedule worst-case wait within 40% of the formula.
	for _, r := range rows {
		if r.MeasuredIntraWait == 0 {
			continue
		}
		ratio := float64(r.MeasuredIntraWait) / float64(r.TheoreticIntraWait)
		if ratio > 1.4 || ratio < 0.5 {
			t.Errorf("Nc=%d measured intra wait %d vs theory %d", r.Nc, r.MeasuredIntraWait, r.TheoreticIntraWait)
		}
	}
}

func TestBlastRadiusModularity(t *testing.T) {
	rows, err := BlastRadius(64, 8, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	sorn, flat := rows[0], rows[1]
	if sorn.NodeBlast >= flat.NodeBlast/2 {
		t.Fatalf("SORN node blast %f not well below flat %f", sorn.NodeBlast, flat.NodeBlast)
	}
	// Link blast radius is structurally (2(n-1)-1)/(n(n-1)) for both
	// designs' intra links; SORN's inter-clique links affect only
	// clique-pair traffic, which is smaller.
	if sorn.InterLink >= flat.IntraLink {
		t.Fatalf("SORN inter-link blast %f not below flat link %f", sorn.InterLink, flat.IntraLink)
	}
}

func TestAdaptationRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("packet-level adaptation run is slow")
	}
	phases, err := Adaptation(AdaptationConfig{N: 64, Nc: 8, X1: 0.2, X2: 0.8, PhaseSlots: 6000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(phases) != 3 {
		t.Fatalf("%d phases", len(phases))
	}
	matched, stale, adapted := phases[0], phases[1], phases[2]
	// After adaptation, q must have risen and throughput must beat the
	// stale phase.
	if adapted.Q <= stale.Q {
		t.Fatalf("q did not rise: %f -> %f", stale.Q, adapted.Q)
	}
	if adapted.Throughput <= stale.Throughput {
		t.Fatalf("adaptation did not help: stale %f adapted %f", stale.Throughput, adapted.Throughput)
	}
	// And the adapted phase approaches the theory for x2=0.8 (0.4545).
	if adapted.Throughput < 0.38 {
		t.Fatalf("adapted throughput %f too low", adapted.Throughput)
	}
	_ = matched
}

func TestGravityRobustness(t *testing.T) {
	pts, err := Gravity(64, 8, []float64{4, 2, 2, 1, 1, 1, 1, 1}, []float64{1, 2, 3, 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	best := 0.0
	for _, p := range pts {
		if p.Theta <= 0 {
			t.Fatalf("q=%f theta=%f", p.Q, p.Theta)
		}
		if p.Theta > best {
			best = p.Theta
		}
	}
	// Even with a 4:1 gravity skew on a uniform inter-clique schedule,
	// some q sustains meaningful throughput; the loss versus the uniform
	// aggregate (~1/3) quantifies what the §5 "Expressivity" extension
	// (non-uniform inter-clique bandwidth) would recover.
	if best < 0.12 {
		t.Fatalf("best gravity throughput %f too low", best)
	}
}

func TestExpressivityDemandAwareWins(t *testing.T) {
	// With partnered cliques exchanging half their demand, the BvN
	// demand-aware schedule must beat the uniform inter allocation.
	rows, err := Expressivity(64, 8, 3, 0.2, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	uniform, aware := rows[0], rows[1]
	if aware.Theta <= uniform.Theta*1.3 {
		t.Fatalf("demand-aware θ=%f should far exceed uniform θ=%f", aware.Theta, uniform.Theta)
	}
}

func TestExpressivityUniformPatternNoRegression(t *testing.T) {
	// Under a pattern with no partner skew, demand-aware should roughly
	// match uniform (the floor and quantization cost a little).
	rows, err := Expressivity(64, 8, 3, 0.2, 1.0/7.0*0.8)
	if err != nil {
		t.Fatal(err)
	}
	uniform, aware := rows[0], rows[1]
	if aware.Theta < uniform.Theta*0.7 {
		t.Fatalf("demand-aware θ=%f regressed badly vs uniform θ=%f", aware.Theta, uniform.Theta)
	}
}

func TestLatencyComparisonOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("four packet simulations")
	}
	rows, err := LatencyComparison(64, 8, 1, 0.05, 17, 1)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]LatencyRow{}
	for _, r := range rows {
		byKey[r.Design+"/"+r.Class] = r
	}
	sornIntra := byKey["SORN/intra-clique"]
	sornInter := byKey["SORN/inter-clique"]
	orn1 := byKey["1D ORN (Sirius)/all"]
	orn2 := byKey["2D ORN/all"]
	// Table 1's ordering at equal N: SORN intra fastest; 2D ORN and SORN
	// inter both far below 1D ORN.
	if !(sornIntra.P50us < orn2.P50us && orn2.P50us < orn1.P50us) {
		t.Fatalf("latency ordering violated: sorn-intra %.2f, 2d %.2f, 1d %.2f",
			sornIntra.P50us, orn2.P50us, orn1.P50us)
	}
	if sornInter.P50us >= orn1.P50us {
		t.Fatalf("SORN inter p50 %.2f not below 1D ORN %.2f", sornInter.P50us, orn1.P50us)
	}
	// Hop counts reflect the designs: ~2 for SORN intra, ~3 inter, ~4 2D.
	if sornInter.MeanHops < 2.3 || orn2.MeanHops < 2.5 {
		t.Fatalf("hop counts implausible: inter %.2f, 2d %.2f", sornInter.MeanHops, orn2.MeanHops)
	}
}

func TestPlaneSweepDividesWait(t *testing.T) {
	if testing.Short() {
		t.Skip("packet simulations")
	}
	pts, err := PlaneSweep(PlaneSweepConfig{
		N: 64, Nc: 8, X: 0.56, Planes: []int{1, 8}, Load: 0.05, Seed: 19,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("%d points", len(pts))
	}
	// Propagation (0.5µs/hop, ~2.2 hops) is a floor; the schedule-wait
	// component above it must shrink by several x with 8 planes.
	const propFloor = 1.1
	wait1 := pts[0].P50us - propFloor
	wait8 := pts[1].P50us - propFloor
	if wait8 > wait1/2.5 {
		t.Fatalf("8 planes wait %.2fµs vs 1 plane %.2fµs — not divided", wait8, wait1)
	}
}

func TestSyncOverheadFavorsSORNAtShortSlots(t *testing.T) {
	rows := SyncOverhead(4096, 64, 0.56, 4, []float64{1000, 100, 60})
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.SORNEff < r.FlatEff {
			t.Fatalf("slot %.0f: SORN efficiency %f below flat %f", r.SlotNS, r.SORNEff, r.FlatEff)
		}
	}
	// At generous slots the two designs are near-equal; at short slots
	// SORN's advantage grows and it can even overtake the flat design's
	// absolute throughput despite the lower r.
	if rows[0].SORNEff-rows[0].FlatEff > 0.1 {
		t.Fatal("1 µs slots should make sync overhead negligible")
	}
	short := rows[2]
	if short.SORNThpt <= short.FlatThpt {
		t.Fatalf("at 60 ns slots SORN thpt %f should beat flat %f", short.SORNThpt, short.FlatThpt)
	}
}

func TestStateScaling(t *testing.T) {
	rows, err := StateScaling([]int{256, 1024, 4096}, 0.56)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		if r.SORNStateBytes >= r.FlatStateBytes {
			t.Fatalf("N=%d: SORN state %dB not below flat %dB", r.N, r.SORNStateBytes, r.FlatStateBytes)
		}
		if i > 0 && rows[i].FlatStateBytes <= rows[i-1].FlatStateBytes {
			t.Fatal("flat state must grow with N")
		}
	}
	// At 4096 nodes the flat design's state is ~an order of magnitude
	// larger than SORN's.
	last := rows[len(rows)-1]
	if last.FlatStateBytes < 5*last.SORNStateBytes {
		t.Fatalf("expected ~10x state gap at N=4096, got %dB vs %dB",
			last.FlatStateBytes, last.SORNStateBytes)
	}
}

func TestDiurnalTracking(t *testing.T) {
	pts, err := Diurnal(DiurnalConfig{N: 64, Nc: 8, Lo: 0.2, Hi: 0.8, Period: 12, Epochs: 36})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 36 {
		t.Fatalf("%d points", len(pts))
	}
	adaptive, static, clair := DiurnalSummary(pts)
	if adaptive <= static {
		t.Fatalf("adaptive mean r %f not above static %f", adaptive, static)
	}
	if adaptive > clair+1e-9 {
		t.Fatalf("adaptive %f exceeds clairvoyant %f", adaptive, clair)
	}
	// With the EWMA lag, adaptive recovers most of the clairvoyant gap.
	if (adaptive-static)/(clair-static) < 0.5 {
		t.Fatalf("adaptive recovers too little: a=%f s=%f c=%f", adaptive, static, clair)
	}
	// The estimate lags the truth but stays in [0,1].
	for _, p := range pts {
		if p.EstimateX < 0 || p.EstimateX > 1 {
			t.Fatalf("estimate %f out of range", p.EstimateX)
		}
	}
}

func TestFCTvsLoadShape(t *testing.T) {
	if testing.Short() {
		t.Skip("several packet simulations")
	}
	pts, err := FCTvsLoad(FCTConfig{N: 64, Nc: 8, X: 0.56, Loads: []float64{0.1, 0.25}, Slots: 20000, Seed: 37})
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]FCTPoint{}
	for _, p := range pts {
		byKey[fmt.Sprintf("%s@%.2f", p.Design, p.Load)] = p
		if p.Done == 0 {
			t.Fatalf("%s@%.2f completed no flows", p.Design, p.Load)
		}
	}
	// SORN's median FCT beats the flat design at both loads (the
	// shorter schedule cycle dominates short-flow completion).
	for _, load := range []string{"0.10", "0.25"} {
		s := byKey["SORN@"+load]
		f := byKey["1D ORN@"+load]
		if s.P50us >= f.P50us {
			t.Fatalf("load %s: SORN p50 %.1f not below flat %.1f", load, s.P50us, f.P50us)
		}
	}
	// FCT grows with load within each design.
	if byKey["SORN@0.25"].P50us < byKey["SORN@0.10"].P50us {
		t.Fatal("SORN FCT did not grow with load")
	}
}

package oracle

import (
	"fmt"
	"math"
	"math/big"

	"repro/internal/fluid"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/routing"
)

// floatBudget is the relative agreement budget for any comparison with a
// float-arithmetic side (the fluid solver's float path, relabeled float
// solves). Rational-vs-rational comparisons use no budget at all.
const floatBudget = 1e-9

// relClose reports |a−b| ≤ budget·max(|a|,|b|).
func relClose(a, b, budget float64) bool {
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= budget*scale
}

// checkRouterInvariants validates the router's path distribution for
// every (src, dst) pair: probabilities are positive exact rationals
// summing to exactly 1, every path starts at src and ends at dst, stays
// within MaxHops, and uses only links the schedule actually provides.
func checkRouterInvariants(sc *scenario, rep *Report) {
	n := sc.sched.N
	slotCount := make([][]int, n)
	for u := range slotCount {
		slotCount[u] = make([]int, n)
	}
	for _, m := range sc.sched.Slots {
		for u, v := range m {
			slotCount[u][v]++
		}
	}
	maxHops := sc.router.MaxHops()
	one := big.NewRat(1, 1)
	sum := new(big.Rat)
	buf := make(routing.Route, 0, maxHops+1)
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			sum.SetInt64(0)
			paths := 0
			buf = sc.router.Paths(buf, src, dst, func(p routing.Route, prob float64) {
				paths++
				rp, ok := model.RatFromFloat(prob)
				if !ok || rp.Sign() <= 0 {
					rep.add("router-prob", "path %d->%d prob %v is not a positive simple rational", src, dst, prob)
					return
				}
				sum.Add(sum, rp)
				if len(p) < 2 || p[0] != src || p[len(p)-1] != dst {
					rep.add("router-endpoints", "path %v for pair %d->%d", p, src, dst)
					return
				}
				if len(p)-1 > maxHops {
					rep.add("router-maxhops", "path %v has %d hops, MaxHops()=%d", p, len(p)-1, maxHops)
				}
				for i := 0; i+1 < len(p); i++ {
					if slotCount[p[i]][p[i+1]] == 0 {
						rep.add("router-offschedule", "path %v hop %d->%d absent from schedule", p, p[i], p[i+1])
						return
					}
				}
			})
			if paths == 0 {
				rep.add("router-nopaths", "no paths for pair %d->%d", src, dst)
			} else if sum.Cmp(one) != 0 {
				rep.add("router-probsum", "pair %d->%d probabilities sum to %s, want exactly 1", src, dst, sum.RatString())
			}
		}
	}
}

// checkFloatVsRational compares the float fluid solve against the exact
// rational solve of the same scenario within floatBudget.
func checkFloatVsRational(sc *scenario, fl *fluid.Result, rr *ratResult, rep *Report) {
	rf, _ := rr.theta.Float64()
	if !relClose(fl.Theta, rf, floatBudget) {
		rep.add("float-vs-rational", "fluid θ=%v, rational θ=%s (≈%v), budget %g",
			fl.Theta, rr.theta.RatString(), rf, floatBudget)
	}
}

// checkClosedForm compares the rational solver against the independently
// derived closed form — exactly, no budget — and then checks the float
// fluid θ against the paper's model lower bounds where those apply.
func checkClosedForm(sc *scenario, fl *fluid.Result, rr *ratResult, rep *Report) {
	theta, name, ok, err := closedFormTheta(sc)
	if err != nil {
		rep.add("closed-form", "%v", err)
	} else if ok && theta.Cmp(rr.theta) != 0 {
		rep.add("closed-form", "%s closed form θ=%s, rational solver θ=%s (bottleneck %d->%d)",
			name, theta.RatString(), rr.theta.RatString(), rr.bottleneckSrc, rr.bottleneckDst)
	}

	// Model lower bounds. These hold only for doubly-substochastic
	// matrices (row and column sums ≤ 1), so hotspot (oversubscribed
	// columns) and gravity are excluded.
	switch sc.spec.Design {
	case "sorn":
		if sc.spec.TM == "uniform" || sc.spec.TM == "locality" {
			xEff := sc.tm.IntraFraction(sc.cliques)
			q := sc.sorn.RealizedQ
			if q > 0 && !math.IsInf(q, 0) {
				bound := model.SORNThroughputAtQ(xEff, q)
				if fl.Theta < bound*(1-floatBudget) {
					rep.add("model-bound", "sorn θ=%v below worst-case bound %v at x=%v q=%v",
						fl.Theta, bound, xEff, q)
				}
			}
		}
	case "orn1":
		if substochastic(sc) && fl.Theta < 0.5*(1-floatBudget) {
			rep.add("model-bound", "VLB θ=%v below 1/2 on a substochastic matrix", fl.Theta)
		}
	case "orn2":
		if sc.spec.TM == "uniform" && fl.Theta < 1/(2*float64(sc.orn.H))*(1-floatBudget) {
			rep.add("model-bound", "ORN θ=%v below 1/(2h)=%v on uniform traffic",
				fl.Theta, 1/(2*float64(sc.orn.H)))
		}
	}
}

// substochastic reports whether every row and column sum is ≤ 1 (within
// floatBudget, since constructor rates are rounded floats).
func substochastic(sc *scenario) bool {
	for i := 0; i < sc.tm.N; i++ {
		if sc.tm.RowSum(i) > 1+floatBudget || sc.tm.ColSum(i) > 1+floatBudget {
			return false
		}
	}
	return true
}

// checkRelabeling verifies node-relabeling invariance: permuting nodes
// in the schedule, router, and traffic matrix together must not change
// throughput — exactly in rational arithmetic, within floatBudget in
// float (the float solver visits links in a different order, so its sums
// reassociate).
func checkRelabeling(sc *scenario, fl *fluid.Result, rr *ratResult, rep *Report) {
	permR := rng.New(sc.spec.Seed ^ 0x72656c6162656cff).Split()
	perm := permR.Perm(sc.spec.N)

	relSched, err := sc.sched.Relabel(perm)
	if err != nil {
		rep.add("relabel", "schedule relabel: %v", err)
		return
	}
	relRouter, err := routing.NewRelabeled(sc.router, perm)
	if err != nil {
		rep.add("relabel", "router relabel: %v", err)
		return
	}
	relRatTM := relabelRat(sc.ratTM, perm)

	relRR, err := solveRat(relSched, relRouter, relRatTM)
	if err != nil {
		rep.add("relabel", "rational solve of relabeled scenario: %v", err)
		return
	}
	if relRR.theta.Cmp(rr.theta) != 0 {
		rep.add("relabel", "rational θ changed under relabeling: %s vs %s (perm %v)",
			relRR.theta.RatString(), rr.theta.RatString(), perm)
	}

	relTM, err := sc.tm.Relabel(perm)
	if err != nil {
		rep.add("relabel", "matrix relabel: %v", err)
		return
	}
	relFl, err := fluid.Solve(relSched, relRouter, relTM)
	if err != nil {
		rep.add("relabel", "float solve of relabeled scenario: %v", err)
		return
	}
	if !relClose(relFl.Theta, fl.Theta, floatBudget) {
		rep.add("relabel", "float θ changed under relabeling: %v vs %v (budget %g, perm %v)",
			relFl.Theta, fl.Theta, floatBudget, perm)
	}
}

// checkScaling verifies demand-scaling linearity: doubling every rate
// must exactly halve θ. The factor 2 is a power of two, so the float
// side commutes with rounding and the comparison is bit-exact even in
// float arithmetic.
func checkScaling(sc *scenario, fl *fluid.Result, rep *Report) {
	scaled := sc.tm.Scale(2)
	fl2, err := fluid.Solve(sc.sched, sc.router, scaled)
	if err != nil {
		rep.add("scaling", "solve of doubled matrix: %v", err)
		return
	}
	//sornlint:ignore floateq -- ×2 is exact in binary floating point; linearity must hold bitwise
	if fl2.Theta*2 != fl.Theta {
		rep.add("scaling", "θ(2·TM)·2 = %v, want exactly θ(TM) = %v", fl2.Theta*2, fl.Theta)
	}
}

// checkCliqueSymmetry verifies the SORN schedule's two structural
// symmetries: rotating whole cliques (u → u+k mod N) and rotating local
// indices within every clique both leave the built schedule bit-for-bit
// invariant, so permuting only the traffic matrix by either must leave
// the exact throughput unchanged.
func checkCliqueSymmetry(sc *scenario, rr *ratResult, rep *Report) {
	n, nc := sc.spec.N, sc.spec.Nc
	k := n / nc
	perms := map[string][]int{
		"clique-rotation": make([]int, n),
		"local-rotation":  make([]int, n),
	}
	for u := 0; u < n; u++ {
		perms["clique-rotation"][u] = (u + k) % n
		perms["local-rotation"][u] = (u/k)*k + (u%k+1)%k
	}
	for name, perm := range perms {
		relSched, err := sc.sched.Relabel(perm)
		if err != nil {
			rep.add("clique-symmetry", "%s: %v", name, err)
			continue
		}
		// The symmetry argument needs the schedule itself to be invariant
		// under the permutation; check it rather than assume it, so a
		// schedule-builder regression surfaces here by name.
		if !relSched.Equal(sc.sched) {
			rep.add("clique-symmetry", "%s: schedule not invariant under %v", name, perm)
			continue
		}
		symRR, err := solveRat(sc.sched, sc.router, relabelRat(sc.ratTM, perm))
		if err != nil {
			rep.add("clique-symmetry", "%s: rational solve: %v", name, err)
			continue
		}
		if symRR.theta.Cmp(rr.theta) != 0 {
			rep.add("clique-symmetry", "%s: θ changed from %s to %s under TM permutation %v",
				name, rr.theta.RatString(), symRR.theta.RatString(), perm)
		}
	}
}

// checkDeltaM cross-checks the SORN δm slot counts: the exact rational
// ceiling must agree with Row.DeltaMSlots for both formula variants, and
// the paper's text-vs-Table-1 inconsistency is recorded as a suppressed
// violation with its justification (it is a defect of the source paper,
// not of this reproduction — both variants are implemented and labeled).
func checkDeltaM(sc *scenario, rep *Report) {
	if sc.spec.X < 0 || sc.spec.X >= 1 {
		return // q* diverges at x = 1; no exact δm to check
	}
	p := model.Params{N: sc.spec.N, SlotNS: 100, PropNS: 500}
	for _, table := range []bool{false, true} {
		sp := model.SORNParams{Nc: sc.spec.Nc, X: sc.spec.X, TableVariant: table}
		rows, err := model.SORN(p, sp)
		if err != nil {
			rep.add("deltam", "model.SORN(n=%d nc=%d x=%v): %v", sc.spec.N, sc.spec.Nc, sc.spec.X, err)
			return
		}
		intra, inter, ok := model.SORNDeltaMExact(sc.spec.N, sc.spec.Nc, sc.spec.X, table)
		if !ok {
			continue // x not a recoverable rational; float path already covered elsewhere
		}
		for i, want := range []*big.Rat{intra, inter} {
			got, exact := rows[i].DeltaMExact()
			if !exact {
				rep.add("deltam", "row %q lost its exact δm", rows[i].System+"/"+rows[i].Variant)
				continue
			}
			if got.Cmp(want) != 0 {
				rep.add("deltam", "row %q exact δm %s, independent formula %s",
					rows[i].System+"/"+rows[i].Variant, got.RatString(), want.RatString())
			}
		}
	}

	// The known source-paper inconsistency: text says (q+1)(Nc−1)+…,
	// Table 1's printed 364/296 need q(Nc−1)+…. Difference is exactly
	// (Nc−1) circuits. Recorded, suppressed, justified.
	textI, textX, ok1 := model.SORNDeltaMExact(sc.spec.N, sc.spec.Nc, sc.spec.X, false)
	tabI, tabX, ok2 := model.SORNDeltaMExact(sc.spec.N, sc.spec.Nc, sc.spec.X, true)
	if ok1 && ok2 {
		if textI.Cmp(tabI) != 0 {
			rep.add("deltam", "intra δm differs between text and table variants: %s vs %s",
				textI.RatString(), tabI.RatString())
		}
		diff := new(big.Rat).Sub(textX, tabX)
		if diff.Cmp(big.NewRat(int64(sc.spec.Nc-1), 1)) != 0 {
			rep.add("deltam", "text−table inter δm = %s, want exactly Nc−1 = %d",
				diff.RatString(), sc.spec.Nc-1)
		} else {
			rep.suppress("deltam-paper",
				fmt.Sprintf("inter δm: text formula %s vs Table-1 formula %s", textX.RatString(), tabX.RatString()),
				"source paper's §4 text and Table 1 disagree by exactly (Nc−1) circuits; both variants are implemented and labeled (SORNParams.TableVariant), Table 1 is reproduced with the table variant")
		}
	}
}

// Package model implements the paper's closed-form latency/throughput
// analysis (§4 and Table 1) for every system it compares:
//
//   - 1D optimal ORN (Sirius-like flat round robin)
//   - h-dimensional optimal ORN
//   - Opera (expander short-flow paths + slow-rotation bulk VLB)
//   - SORN at a given clique count and locality ratio
//
// Latency is "intrinsic latency" δm — the maximum number of circuits a
// packet may need to cycle through across all its hops — converted to
// wall-clock time as δm·slot/uplinks + hops·propagation, which reproduces
// every minimum-latency entry of Table 1.
package model

import (
	"fmt"
	"math"
	"math/big"
)

// Params are the deployment parameters shared by all Table 1 rows.
type Params struct {
	N       int     // number of nodes (racks)
	Uplinks int     // parallel uplinks per node (schedule planes)
	SlotNS  float64 // time-slot duration, ns
	PropNS  float64 // per-hop propagation delay, ns
}

// Table1Params returns the paper's Table 1 deployment: a 4096-rack DCN,
// 16 uplinks per rack into 256-port AWGRs, 100 ns slots, 500 ns/hop
// propagation.
func Table1Params() Params {
	return Params{N: 4096, Uplinks: 16, SlotNS: 100, PropNS: 500}
}

// Row is one line of Table 1.
type Row struct {
	System  string
	Variant string // "intra-clique", "inter-clique", "short flows", "bulk"

	MaxHops      int
	DeltaM       float64 // intrinsic latency in circuits (pre-rounding)
	MinLatencyNS float64 // δm·slot/uplinks + hops·prop
	Throughput   float64 // worst-case throughput fraction
	BWCost       float64 // normalized bandwidth cost (≈ mean hop count)

	// deltaMExact, when set by a constructor in this package, is the
	// exact rational value of DeltaM (q and x interpreted as the
	// rationals they were intended to be, e.g. x = 0.56 as 14/25).
	// DeltaMSlots ceils this instead of the float when available.
	deltaMExact *big.Rat
}

// DeltaMSlots returns δm rounded up to whole circuits, as Table 1 prints.
// Rows built by this package carry δm as an exact rational and the
// ceiling is exact integer arithmetic; rows without one fall back to a
// checked float ceiling that absorbs only ulp-scale error below an
// integer (replacing the old fixed Ceil(δm − 1e-9) fudge, which silently
// rounded any δm within 1e-9 above an integer back down).
func (r Row) DeltaMSlots() int {
	if r.deltaMExact != nil {
		return ratCeil(r.deltaMExact)
	}
	return ceilChecked(r.DeltaM)
}

// DeltaMExact returns the exact rational δm when the row was built by a
// constructor in this package (and the inputs admit one), or false.
func (r Row) DeltaMExact() (*big.Rat, bool) {
	if r.deltaMExact == nil {
		return nil, false
	}
	return new(big.Rat).Set(r.deltaMExact), true
}

// ratCeil returns ⌈v⌉ for a rational v by exact integer division.
func ratCeil(v *big.Rat) int {
	q, m := new(big.Int).DivMod(v.Num(), v.Denom(), new(big.Int))
	if m.Sign() != 0 && v.Sign() > 0 {
		q.Add(q, big.NewInt(1))
	}
	return int(q.Int64())
}

// ceilChecked is the float fallback: a plain ceiling, except that a
// value within a few ulps of an integer (on either side) is treated as
// that integer — float round-off from the δm formulas, not a genuine
// fractional circuit. The tolerance is relative (ulp-scaled), unlike
// the old absolute 1e-9 which both missed large-magnitude round-off and
// swallowed genuine sub-1e-9 fractions near integers.
func ceilChecked(dm float64) int {
	nearest := math.Round(dm)
	if diff := math.Abs(dm - nearest); diff > 0 && diff <= 4*ulpAround(dm) {
		return int(nearest)
	}
	return int(math.Ceil(dm))
}

// ulpAround returns the unit-in-last-place spacing at |v|, with a floor
// of the spacing at 1 so values near zero still get a sane tolerance.
func ulpAround(v float64) float64 {
	a := math.Abs(v)
	if a < 1 {
		a = 1
	}
	return math.Nextafter(a, math.Inf(1)) - a
}

// RatFromFloat recovers the simple rational a float64 was rounded from:
// the first continued-fraction convergent of v whose float64 quotient
// round-trips to exactly v, with denominator capped at 2^26 (below that
// cap distinct rationals are more than one ulp apart on [0,1]-scale
// magnitudes, so the recovered rational is unique). Returns false when v
// is not finite or no small rational round-trips — callers then either
// keep the float path or use big.Rat.SetFloat64 (the exact binary
// expansion) depending on which semantics they want.
func RatFromFloat(v float64) (*big.Rat, bool) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil, false
	}
	const maxDen = 1 << 26
	neg := v < 0
	x := math.Abs(v)
	if x > 1<<30 {
		return nil, false
	}
	// Convergents h_i/k_i of the continued fraction of x:
	// h_i = a_i·h_{i−1} + h_{i−2}, same for k, seeded h_{−1}=1, h_{−2}=0,
	// k_{−1}=0, k_{−2}=1.
	h1, h0 := int64(1), int64(0)
	k1, k0 := int64(0), int64(1)
	rem := x
	for i := 0; i < 64; i++ {
		a := math.Floor(rem)
		if a > 1<<30 {
			// A term this large either is the integer part of an
			// out-of-scope value or would blow the denominator cap.
			return nil, false
		}
		ai := int64(a)
		h := ai*h1 + h0
		k := ai*k1 + k0
		if k > maxDen {
			return nil, false
		}
		if float64(h)/float64(k) == x { //sornlint:ignore floateq -- exact round-trip is the acceptance test
			if neg {
				h = -h
			}
			return big.NewRat(h, k), true
		}
		h0, h1 = h1, h
		k0, k1 = k1, k
		frac := rem - a
		//sornlint:ignore floateq -- exact termination of the expansion
		if frac == 0 {
			return nil, false
		}
		rem = 1 / frac
	}
	return nil, false
}

// MinLatencyMicros returns the minimum worst-case latency in µs.
func (r Row) MinLatencyMicros() float64 { return r.MinLatencyNS / 1000 }

func (p Params) latency(deltaM float64, hops int, slotNS float64) float64 {
	return deltaM*slotNS/float64(p.Uplinks) + float64(hops)*p.PropNS
}

// ORN1D models the flat round-robin design (Sirius [5]): 2-hop VLB,
// δm = N−1, worst-case throughput 50%, bandwidth cost 2x.
func ORN1D(p Params) Row {
	dm := float64(p.N - 1)
	return Row{
		System:       "Optimal ORN 1D (Sirius)",
		MaxHops:      2,
		DeltaM:       dm,
		MinLatencyNS: p.latency(dm, 2, p.SlotNS),
		Throughput:   0.5,
		BWCost:       2,
		deltaMExact:  big.NewRat(int64(p.N-1), 1),
	}
}

// ORN models the h-dimensional optimal ORN [4]: 2h-hop routing,
// δm = 2h(N^(1/h) − 1), worst-case throughput 1/2h, bandwidth cost 2h.
func ORN(p Params, h int) (Row, error) {
	if h < 1 {
		return Row{}, fmt.Errorf("model: ORN dimension must be >= 1, got %d", h)
	}
	a := math.Pow(float64(p.N), 1/float64(h))
	dm := 2 * float64(h) * (a - 1)
	row := Row{
		System:       fmt.Sprintf("Optimal ORN %dD", h),
		MaxHops:      2 * h,
		DeltaM:       dm,
		MinLatencyNS: p.latency(dm, 2*h, p.SlotNS),
		Throughput:   1 / (2 * float64(h)),
		BWCost:       2 * float64(h),
	}
	// When N is a perfect h-th power (every deployed ORN), δm is the
	// integer 2h(a−1) — no float root extraction in the slot count.
	if ai, ok := intRoot(p.N, h); ok {
		row.deltaMExact = big.NewRat(int64(2*h*(ai-1)), 1)
	}
	return row, nil
}

// intRoot returns the exact integer h-th root of n, when one exists.
func intRoot(n, h int) (int, bool) {
	if n < 1 || h < 1 {
		return 0, false
	}
	a := int(math.Round(math.Pow(float64(n), 1/float64(h))))
	for _, cand := range []int{a - 1, a, a + 1} {
		if cand < 1 {
			continue
		}
		p := 1
		for i := 0; i < h; i++ {
			p *= cand
		}
		if p == n {
			return cand, true
		}
	}
	return 0, false
}

// OperaParams carry Opera's [18] deployment assumptions as used in
// Table 1: 90 µs time slots (needed to route short flows over fixed
// topologies) and the throughput/bandwidth-cost figures the paper quotes
// from the Opera design (31.25%, 3.2x).
type OperaParams struct {
	SlotNS     float64 // Opera's much longer slot
	Throughput float64
	BWCost     float64
	ShortHops  int // expander path budget for latency-sensitive traffic
}

// DefaultOperaParams returns the Table 1 assumptions.
func DefaultOperaParams() OperaParams {
	return OperaParams{SlotNS: 90_000, Throughput: 0.3125, BWCost: 3.2, ShortHops: 4}
}

// Opera returns the two Opera rows: short flows traverse up to ShortHops
// expander hops with zero intrinsic wait (the expander is always
// connected), bulk traffic uses 2-hop VLB over the slow rotation with
// δm = N−1 epochs of the long slot.
func Opera(p Params, op OperaParams) []Row {
	bulkDM := float64(p.N - 1)
	return []Row{
		{
			System:       "Opera",
			Variant:      "short flows",
			MaxHops:      op.ShortHops,
			DeltaM:       0,
			MinLatencyNS: p.latency(0, op.ShortHops, op.SlotNS),
			Throughput:   op.Throughput,
			BWCost:       op.BWCost,
			deltaMExact:  big.NewRat(0, 1),
		},
		{
			System:       "Opera",
			Variant:      "bulk",
			MaxHops:      2,
			DeltaM:       bulkDM,
			MinLatencyNS: p.latency(bulkDM, 2, op.SlotNS),
			Throughput:   op.Throughput,
			BWCost:       op.BWCost,
			deltaMExact:  big.NewRat(int64(p.N-1), 1),
		},
	}
}

// SORNParams describe a semi-oblivious design point.
type SORNParams struct {
	Nc int     // number of cliques (equal size N/Nc)
	X  float64 // intra-clique fraction of demand (locality ratio)

	// TableVariant selects the inter-clique δm formula. The paper's text
	// (§4, "Latency") states δm = (q+1)(Nc−1) + (q+1)/q·(N/Nc−1), but the
	// numbers printed in Table 1 (364 and 296) are only consistent with
	// q·(Nc−1) + (q+1)/q·(N/Nc−1). True reproduces the printed table.
	TableVariant bool
}

// SORNQ returns the throughput-optimal oversubscription q* = 2/(1−x).
// q* diverges as x→1 and SORNQ(1) is +Inf by design — callers that need
// a buildable schedule must use SORNQClamped, which is finite over the
// whole domain. NaN is rejected like any other out-of-domain input (a
// NaN locality ratio means the estimate is corrupt, and NaN would
// otherwise slide through every range check unnoticed).
func SORNQ(x float64) float64 {
	if math.IsNaN(x) || x < 0 || x > 1 {
		panic(fmt.Sprintf("model: locality ratio %f outside [0,1]", x))
	}
	//sornlint:ignore floateq -- x = 1 exactly is the documented divergence point
	if x == 1 {
		return math.Inf(1)
	}
	return 2 / (1 - x)
}

// SORNQClamped returns q* clamped to at most maxQ, so the result is
// finite and positive for every x in [0,1] — the form schedule builders
// need (q* = +Inf at x = 1 would mean a schedule with no inter-clique
// slots at all, which forfeits the oblivious worst-case guarantee).
// maxQ must be positive and finite.
func SORNQClamped(x, maxQ float64) float64 {
	if math.IsNaN(maxQ) || math.IsInf(maxQ, 0) || maxQ <= 0 {
		panic(fmt.Sprintf("model: q clamp %f must be positive and finite", maxQ))
	}
	q := SORNQ(x)
	if q > maxQ {
		return maxQ
	}
	return q
}

// SORNThroughput returns the worst-case throughput r = 1/(3−x) at q*.
func SORNThroughput(x float64) float64 {
	if x < 0 || x > 1 {
		panic(fmt.Sprintf("model: locality ratio %f outside [0,1]", x))
	}
	return 1 / (3 - x)
}

// SORNThroughputAtQ returns the worst-case throughput for an arbitrary
// oversubscription q (not necessarily optimal):
// r = min( q/(2(q+1)), 1/((1−x)(q+1)) )  — intra- vs inter-link bound.
func SORNThroughputAtQ(x, q float64) float64 {
	if q <= 0 {
		panic(fmt.Sprintf("model: q must be positive, got %f", q))
	}
	intra := q / (2 * (q + 1))
	if x >= 1 {
		return intra
	}
	inter := 1 / ((1 - x) * (q + 1))
	return math.Min(intra, inter)
}

// IntraCliqueDeltaM returns δm for intra-clique traffic:
// (q+1)/q · (N/Nc − 1) circuits.
func IntraCliqueDeltaM(n, nc int, q float64) float64 {
	k := float64(n / nc)
	return (q + 1) / q * (k - 1)
}

// InterCliqueDeltaM returns δm for inter-clique traffic per the paper's
// text formula: (q+1)(Nc−1) + (q+1)/q·(N/Nc−1).
func InterCliqueDeltaM(n, nc int, q float64) float64 {
	return (q+1)*float64(nc-1) + IntraCliqueDeltaM(n, nc, q)
}

// InterCliqueDeltaMTable returns δm per the variant Table 1 actually
// prints: q(Nc−1) + (q+1)/q·(N/Nc−1). See SORNParams.TableVariant.
func InterCliqueDeltaMTable(n, nc int, q float64) float64 {
	return q*float64(nc-1) + IntraCliqueDeltaM(n, nc, q)
}

// SORNDeltaMExact returns the exact rational intra- and inter-clique δm
// at q* = 2/(1−x), with x interpreted as the simple rational its float
// was rounded from (e.g. 0.56 as 14/25, so q* = 50/11 for Table 1).
// tableVariant selects the inter-clique formula Table 1 prints over the
// text's (see SORNParams.TableVariant). ok is false when x ≥ 1 (q*
// diverges) or the float does not recover a small rational.
func SORNDeltaMExact(n, nc int, x float64, tableVariant bool) (intra, inter *big.Rat, ok bool) {
	if nc < 1 || n%nc != 0 {
		return nil, nil, false
	}
	xr, ok := RatFromFloat(x)
	if !ok || x >= 1 || x < 0 {
		return nil, nil, false
	}
	one := big.NewRat(1, 1)
	q := new(big.Rat).Quo(big.NewRat(2, 1), new(big.Rat).Sub(one, xr)) // q* = 2/(1−x)
	k := int64(n / nc)
	// intra = (q+1)/q · (k−1)
	qp1 := new(big.Rat).Add(q, one)
	intra = new(big.Rat).Quo(qp1, q)
	intra.Mul(intra, big.NewRat(k-1, 1))
	// inter = first-term·(Nc−1) + intra, first term q (table) or q+1 (text)
	first := q
	if !tableVariant {
		first = qp1
	}
	inter = new(big.Rat).Mul(first, big.NewRat(int64(nc-1), 1))
	inter.Add(inter, intra)
	return intra, inter, true
}

// SORN returns the intra- and inter-clique rows for a SORN design point
// at the throughput-optimal q* for the given locality ratio.
func SORN(p Params, sp SORNParams) ([]Row, error) {
	if sp.Nc < 2 || p.N%sp.Nc != 0 {
		return nil, fmt.Errorf("model: invalid clique count %d for N=%d", sp.Nc, p.N)
	}
	q := SORNQ(sp.X)
	r := SORNThroughput(sp.X)
	bw := 3 - sp.X // mean hops: 2x + 3(1-x)
	intraDM := IntraCliqueDeltaM(p.N, sp.Nc, q)
	var interDM float64
	if sp.TableVariant {
		interDM = InterCliqueDeltaMTable(p.N, sp.Nc, q)
	} else {
		interDM = InterCliqueDeltaM(p.N, sp.Nc, q)
	}
	name := fmt.Sprintf("SORN Nc=%d", sp.Nc)
	rows := []Row{
		{
			System:       name,
			Variant:      "intra-clique",
			MaxHops:      2,
			DeltaM:       intraDM,
			MinLatencyNS: p.latency(intraDM, 2, p.SlotNS),
			Throughput:   r,
			BWCost:       bw,
		},
		{
			System:       name,
			Variant:      "inter-clique",
			MaxHops:      3,
			DeltaM:       interDM,
			MinLatencyNS: p.latency(interDM, 3, p.SlotNS),
			Throughput:   r,
			BWCost:       bw,
		},
	}
	if intraEx, interEx, ok := SORNDeltaMExact(p.N, sp.Nc, sp.X, sp.TableVariant); ok {
		rows[0].deltaMExact = intraEx
		rows[1].deltaMExact = interEx
	}
	return rows, nil
}

// Table1 regenerates the paper's Table 1 at deployment p and locality
// ratio x: the 1D ORN, Opera, the 2D ORN, then SORN at Nc=64 and Nc=32,
// skipping a clique count that does not divide p.N. The paper's table is
// Table1(Table1Params(), 0.56, true) — x = 0.56 is the production-trace
// median it assumes; tableVariant selects the inter-clique δm formula
// (see SORNParams.TableVariant).
func Table1(p Params, x float64, tableVariant bool) ([]Row, error) {
	rows := []Row{ORN1D(p)}
	rows = append(rows, Opera(p, DefaultOperaParams())...)
	orn2, err := ORN(p, 2)
	if err != nil {
		return nil, err
	}
	rows = append(rows, orn2)
	for _, nc := range []int{64, 32} {
		if p.N%nc != 0 {
			continue
		}
		sr, err := SORN(p, SORNParams{Nc: nc, X: x, TableVariant: tableVariant})
		if err != nil {
			return nil, err
		}
		rows = append(rows, sr...)
	}
	return rows, nil
}

// SyncEfficiency models the §6 time-synchronization argument: every slot
// needs a guard interval to absorb clock skew across its synchronization
// domain, and skew grows with the domain's sync-tree depth. With a
// per-level guard g0, a domain of m nodes costs g0·log2(m) ns per slot,
// so the usable fraction of each slot is 1 − g0·log2(m)/slot (floored at
// 0). Smaller domains (SORN's cliques) keep more of the slot.
func SyncEfficiency(domainSize int, slotNS, guardPerLevelNS float64) float64 {
	if domainSize < 2 {
		return 1
	}
	guard := guardPerLevelNS * math.Log2(float64(domainSize))
	eff := 1 - guard/slotNS
	if eff < 0 {
		return 0
	}
	return eff
}

// SORNSyncEfficiency returns the capacity-weighted slot efficiency of a
// SORN: intra-clique slots (a q/(q+1) share) synchronize only within the
// clique of N/Nc nodes, while inter-clique slots need the global domain.
// A flat 1D ORN pays the global guard on every slot.
func SORNSyncEfficiency(n, nc int, q, slotNS, guardPerLevelNS float64) float64 {
	intra := SyncEfficiency(n/nc, slotNS, guardPerLevelNS)
	inter := SyncEfficiency(n, slotNS, guardPerLevelNS)
	return q/(q+1)*intra + 1/(q+1)*inter
}

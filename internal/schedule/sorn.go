package schedule

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/matching"
)

// SORNConfig describes a semi-oblivious hierarchical schedule (paper §4):
// nodes partitioned into equal cliques, intra-clique circuits receiving a
// q/(q+1) share of each node's time slots, and inter-clique circuits the
// remaining 1/(q+1).
type SORNConfig struct {
	N  int     // number of nodes
	Nc int     // number of cliques (equal sized; N % Nc == 0)
	Q  float64 // oversubscription ratio, q >= 1 in the paper's regime

	// MaxWeight bounds the integer circuit weights used to realize Q, and
	// with it the schedule period. 0 means the default (32).
	MaxWeight int
}

// SORN is a built semi-oblivious schedule plus the structure the router
// and control plane need.
type SORN struct {
	Config    SORNConfig
	Cliques   *Cliques
	Schedule  *matching.Schedule
	RealizedQ float64 // SI/SX actually achieved by integer weights

	// WIntra is the number of slots per period each specific intra-clique
	// circuit gets; WInter is slots per period per destination clique.
	WIntra, WInter int
}

// BuildSORN constructs the hierarchical circuit schedule. The schedule
// period is (k-1)·wIntra + (Nc-1)·wInter slots, with k = N/Nc, and the
// integer weights chosen so wIntra·(k-1) : wInter·(Nc-1) ≈ q : 1, i.e.
// intra-clique links get a q/(q+1) share of node bandwidth.
//
// Each intra slot realizes a local cyclic shift within every clique; each
// inter slot with clique offset c connects every node to its same-local-
// index peer in clique (own+c) mod Nc. The landing index is fixed (not
// rotated) so each node keeps a *fixed superset of neighbors* across q
// rebalances — the property that makes SORN schedule updates drain-free
// (paper §5). Inter-clique load still spreads over all k hosts of the
// destination clique because the load-balancing first hop randomizes the
// sender's local index. Slots are interleaved by stride scheduling so each
// circuit's occurrences are nearly evenly spaced, keeping intrinsic
// latency close to the paper's formulas.
func BuildSORN(cfg SORNConfig) (*SORN, error) {
	wIntra, wInter, err := cfg.Weights()
	if err != nil {
		return nil, err
	}
	cl, err := EqualCliques(cfg.N, cfg.Nc)
	if err != nil {
		return nil, err
	}
	k := cfg.N / cfg.Nc

	// Streams: one per intra shift (weight wIntra each), one per clique
	// offset (weight wInter each).
	type stream struct {
		intra bool
		shift int // local shift (intra) or clique offset (inter)
	}
	var streams []stream
	var weights []int
	for j := 1; j < k; j++ {
		if wIntra > 0 {
			streams = append(streams, stream{intra: true, shift: j})
			weights = append(weights, wIntra)
		}
	}
	for c := 1; c < cfg.Nc; c++ {
		if wInter > 0 {
			streams = append(streams, stream{intra: false, shift: c})
			weights = append(weights, wInter)
		}
	}
	if len(streams) == 0 {
		return nil, fmt.Errorf("schedule: SORN config yields an empty schedule")
	}

	// One matching per stream, shared by all of its slots (the schedule
	// is immutable; see matching.Schedule).
	ms := make([]matching.Matching, len(streams))
	for i, st := range streams {
		if st.intra {
			ms[i] = intraMatching(cl, st.shift)
		} else {
			ms[i] = interMatching(cl, st.shift, 0)
		}
	}
	sched := slotsOf(cfg.N, ms, interleave(weights))
	if err := sched.Validate(); err != nil {
		return nil, fmt.Errorf("schedule: built invalid SORN schedule: %w", err)
	}

	realQ := math.Inf(1)
	if wInter > 0 && cfg.Nc > 1 {
		if wIntra == 0 || k == 1 {
			realQ = 0
		} else {
			realQ = float64(wIntra*(k-1)) / float64(wInter*(cfg.Nc-1))
		}
	}
	return &SORN{
		Config:    cfg,
		Cliques:   cl,
		Schedule:  sched,
		RealizedQ: realQ,
		WIntra:    wIntra,
		WInter:    wInter,
	}, nil
}

// Weights returns the integer circuit weights (wIntra, wInter) BuildSORN
// realizes cfg.Q with: wIntra·(k-1) : wInter·(Nc-1) ≈ q : 1, each at most
// MaxWeight. Two configs with equal weights build identical schedules,
// which is how the control plane recognizes that a new q changes
// nothing. It fails exactly when BuildSORN would reject cfg.
func (cfg SORNConfig) Weights() (wIntra, wInter int, err error) {
	if cfg.Nc < 1 {
		return 0, 0, fmt.Errorf("schedule: SORN needs at least 1 clique, got %d", cfg.Nc)
	}
	if math.IsNaN(cfg.Q) || math.IsInf(cfg.Q, 0) {
		return 0, 0, fmt.Errorf("schedule: SORN oversubscription q must be finite, got %v", cfg.Q)
	}
	if err := checkEqualSplit(cfg.N, cfg.Nc); err != nil {
		return 0, 0, err
	}
	k := cfg.N / cfg.Nc
	if k < 2 && cfg.Nc < 2 {
		return 0, 0, fmt.Errorf("schedule: SORN over %d nodes is degenerate", cfg.N)
	}
	maxW := cfg.MaxWeight
	if maxW == 0 {
		maxW = 32
	}
	switch {
	case cfg.Nc == 1:
		// Flat network: pure round robin inside the single clique.
		return 1, 0, nil
	case k == 1:
		// Cliques of one node: everything is inter-clique.
		return 0, 1, nil
	case cfg.Q <= 0:
		return 0, 0, fmt.Errorf("schedule: SORN oversubscription q must be positive, got %f", cfg.Q)
	default:
		// wIntra/wInter ≈ q·(Nc-1)/(k-1)
		wIntra, wInter = approxRatio(cfg.Q*float64(cfg.Nc-1)/float64(k-1), maxW)
		return wIntra, wInter, nil
	}
}

// OptimalQ returns the oversubscription ratio q* = 2/(1-x) that equalizes
// intra- and inter-clique link utilization for intra-clique traffic
// fraction x, and the resulting worst-case throughput r = 1/(3-x)
// (paper §4, "Throughput").
func OptimalQ(x float64) (q, r float64) {
	if x < 0 || x > 1 {
		panic(fmt.Sprintf("schedule: locality fraction %f outside [0,1]", x))
	}
	//sornlint:ignore floateq -- x = 1 exactly is the documented divergence point
	if x == 1 {
		return math.Inf(1), 0.5
	}
	return 2 / (1 - x), 1 / (3 - x)
}

// slotsOf returns the schedule whose slot t is stream order[t]'s
// matching, the same Matching for every slot of a stream.
func slotsOf(n int, ms []matching.Matching, order []int) *matching.Schedule {
	sched := &matching.Schedule{N: n, Slots: make([]matching.Matching, len(order))}
	for t, si := range order {
		sched.Slots[t] = ms[si]
	}
	return sched
}

// intraMatching connects each node to the node shift positions ahead
// within its own clique (cliques must be uniform in size).
func intraMatching(cl *Cliques, shift int) matching.Matching {
	m := make(matching.Matching, cl.N())
	for node := 0; node < cl.N(); node++ {
		c := cl.CliqueOf(node)
		mem := cl.Members(c)
		m[node] = mem[(cl.LocalIndex(node)+shift)%len(mem)]
	}
	return m
}

// interMatching connects each node to the node with local index
// (own local + localShift) mod k in clique (own clique + offset) mod Nc.
func interMatching(cl *Cliques, offset, localShift int) matching.Matching {
	m := make(matching.Matching, cl.N())
	nc := cl.NumCliques()
	for node := 0; node < cl.N(); node++ {
		c := (cl.CliqueOf(node) + offset) % nc
		mem := cl.Members(c)
		m[node] = mem[(cl.LocalIndex(node)+localShift)%len(mem)]
	}
	return m
}

// approxRatio returns small positive integers (num, den) with num/den close
// to target and both ≤ maxW, by scanning denominators (target is O(1000)
// and maxW ≤ 64, so brute force is exact and instant).
func approxRatio(target float64, maxW int) (num, den int) {
	if target <= 0 {
		return 1, maxW
	}
	bestErr := math.Inf(1)
	num, den = 1, 1
	for d := 1; d <= maxW; d++ {
		// Compare in float first: target·d can exceed the int range, and
		// the overflowed conversion would wrap to a tiny numerator.
		f := math.Round(target * float64(d))
		if f > float64(maxW) {
			continue
		}
		n := int(f)
		if n < 1 {
			n = 1
		}
		err := math.Abs(float64(n)/float64(d) - target)
		if err < bestErr-1e-12 {
			bestErr = err
			num, den = n, d
		}
	}
	if math.IsInf(bestErr, 1) {
		// target > maxW for every denominator; saturate.
		return maxW, 1
	}
	return num, den
}

// interleave produces a slot order over streams with the given integer
// weights, of length sum(weights), where stream i appears weights[i] times
// at nearly even spacing (stride scheduling). The result is deterministic.
func interleave(weights []int) []int {
	total := 0
	for _, w := range weights {
		total += w
	}
	type ev struct {
		pos    float64
		stream int
		occ    int
	}
	evs := make([]ev, 0, total)
	for i, w := range weights {
		for m := 0; m < w; m++ {
			// Phase offset (i+1)/(len+1) staggers streams of equal weight
			// so their occurrences do not collide at identical positions.
			pos := (float64(m) + float64(i+1)/float64(len(weights)+1)) / float64(w)
			evs = append(evs, ev{pos: pos, stream: i, occ: m})
		}
	}
	sort.SliceStable(evs, func(a, b int) bool { return evs[a].pos < evs[b].pos })
	out := make([]int, len(evs))
	for i, e := range evs {
		out[i] = e.stream
	}
	return out
}

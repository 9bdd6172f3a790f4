package schedule

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/bvn"
	"repro/internal/matching"
)

// DemandAwareConfig builds a SORN schedule whose inter-clique bandwidth
// follows an aggregated clique-level demand matrix instead of being
// uniform — the paper's §5 "Expressivity": "we may encode gravity
// models, non-uniform clique sizes, or generally allow higher
// provisioning between certain spatial groups."
//
// The inter-clique allocation is made doubly stochastic with Sinkhorn
// scaling (after mixing in a uniform floor so every clique pair keeps
// some bandwidth and stays routable), decomposed into clique-level
// derangements by Birkhoff–von Neumann, and each derangement becomes a
// family of slots in which every node connects to its same-local-index
// peer in the mapped clique.
type DemandAwareConfig struct {
	N  int
	Nc int
	Q  float64 // intra : inter bandwidth ratio, as in SORNConfig

	// Demand is the Nc×Nc aggregated inter-clique demand (diagonal
	// ignored; only relative off-diagonal magnitudes matter).
	Demand [][]float64

	// Floor mixes a uniform allocation into the demand (0..1) so that
	// no clique pair is starved and routing stays total. Default 0.1.
	Floor float64

	// InterSlots is the total number of inter-clique slots per period
	// used to quantize the decomposition weights. Default 4·(Nc−1).
	InterSlots int
}

// BuildSORNDemandAware constructs the schedule. The result is a *SORN
// usable with routing.NewSORN: every clique pair retains at least one
// circuit family (thanks to the floor), landing stays the
// same-local-index peer, and the intra-clique structure is identical to
// the uniform builder's.
func BuildSORNDemandAware(cfg DemandAwareConfig) (*SORN, error) {
	if cfg.Nc < 2 {
		return nil, fmt.Errorf("schedule: demand-aware SORN needs >= 2 cliques, got %d", cfg.Nc)
	}
	cl, err := EqualCliques(cfg.N, cfg.Nc)
	if err != nil {
		return nil, err
	}
	k := cfg.N / cfg.Nc
	if k < 2 {
		return nil, fmt.Errorf("schedule: demand-aware SORN needs cliques of >= 2 nodes")
	}
	if cfg.Q <= 0 {
		return nil, fmt.Errorf("schedule: oversubscription q must be positive, got %f", cfg.Q)
	}
	if len(cfg.Demand) != cfg.Nc {
		return nil, fmt.Errorf("schedule: demand matrix is %d x ?, want %d", len(cfg.Demand), cfg.Nc)
	}
	floor := cfg.Floor
	//sornlint:ignore floateq -- zero value means "unset", replaced by the default
	if floor == 0 {
		floor = 0.1
	}
	if floor < 0 || floor > 1 {
		return nil, fmt.Errorf("schedule: floor %f outside [0,1]", floor)
	}
	interSlots := cfg.InterSlots
	if interSlots == 0 {
		interSlots = 4 * (cfg.Nc - 1)
	}
	if interSlots < cfg.Nc-1 {
		return nil, fmt.Errorf("schedule: %d inter slots cannot cover %d clique offsets", interSlots, cfg.Nc-1)
	}

	// Mix the demand with a uniform floor and normalize per row before
	// Sinkhorn (which then equalizes columns too).
	mixed := make([][]float64, cfg.Nc)
	for a := range mixed {
		if len(cfg.Demand[a]) != cfg.Nc {
			return nil, fmt.Errorf("schedule: demand row %d has %d entries, want %d", a, len(cfg.Demand[a]), cfg.Nc)
		}
		mixed[a] = make([]float64, cfg.Nc)
		rowSum := 0.0
		for b, v := range cfg.Demand[a] {
			if a == b {
				continue
			}
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("schedule: demand[%d][%d] = %f invalid", a, b, v)
			}
			rowSum += v
		}
		for b := range mixed[a] {
			if a == b {
				continue
			}
			uniform := 1 / float64(cfg.Nc-1)
			demandShare := uniform
			if rowSum > 0 {
				demandShare = cfg.Demand[a][b] / rowSum
			}
			mixed[a][b] = (1-floor)*demandShare + floor*uniform
		}
	}
	ds, err := bvn.Sinkhorn(mixed, 5000, 1e-10)
	if err != nil {
		return nil, fmt.Errorf("schedule: demand scaling failed: %w", err)
	}
	terms, err := bvn.Decompose(ds, 0, 1e-8)
	if err != nil {
		return nil, fmt.Errorf("schedule: demand decomposition failed: %w", err)
	}

	// Quantize term weights to slot counts (largest remainder, keeping
	// every term at least one slot so its clique pairs stay connected).
	slots := quantize(terms, interSlots)

	// Intra slots: keep the intra:inter ratio at q. Total inter slots =
	// sum(slots); intra slots per shift = wIntra such that
	// (k−1)·wIntra : interTotal ≈ q : 1.
	interTotal := 0
	for _, s := range slots {
		interTotal += s
	}
	wIntra := int(math.Round(cfg.Q * float64(interTotal) / float64(k-1)))
	if wIntra < 1 {
		wIntra = 1
	}

	// Streams: k−1 intra shifts + one per BvN term.
	var weights []int
	type stream struct {
		intra bool
		shift int // intra local shift
		term  int // index into terms
	}
	var streams []stream
	for j := 1; j < k; j++ {
		streams = append(streams, stream{intra: true, shift: j})
		weights = append(weights, wIntra)
	}
	for ti := range terms {
		if slots[ti] == 0 {
			continue
		}
		streams = append(streams, stream{term: ti})
		weights = append(weights, slots[ti])
	}

	ms := make([]matching.Matching, len(streams))
	for i, st := range streams {
		if st.intra {
			ms[i] = intraMatching(cl, st.shift)
		} else {
			ms[i] = cliquePermMatching(cl, terms[st.term].Perm)
		}
	}
	sched := slotsOf(cfg.N, ms, interleave(weights))
	if err := sched.Validate(); err != nil {
		return nil, fmt.Errorf("schedule: demand-aware schedule invalid: %w", err)
	}
	realQ := float64(wIntra*(k-1)) / float64(interTotal)
	return &SORN{
		Config:    SORNConfig{N: cfg.N, Nc: cfg.Nc, Q: cfg.Q},
		Cliques:   cl,
		Schedule:  sched,
		RealizedQ: realQ,
		WIntra:    wIntra,
		WInter:    0, // non-uniform; see the schedule itself
	}, nil
}

// cliquePermMatching lowers a clique-level derangement to a node-level
// matching: every node connects to the same-local-index node of the
// clique its own clique maps to.
func cliquePermMatching(cl *Cliques, perm []int) matching.Matching {
	m := make(matching.Matching, cl.N())
	for node := 0; node < cl.N(); node++ {
		target := cl.Members(perm[cl.CliqueOf(node)])
		m[node] = target[cl.LocalIndex(node)%len(target)]
	}
	return m
}

// quantize allocates total slots to terms proportionally to weight by
// largest remainder, guaranteeing >= 1 slot per term (raising the total
// if there are more terms than slots).
func quantize(terms []bvn.Term, total int) []int {
	n := len(terms)
	if total < n {
		total = n
	}
	out := make([]int, n)
	type rem struct {
		idx  int
		frac float64
	}
	rems := make([]rem, 0, n)
	used := 0
	for i, t := range terms {
		exact := t.Weight * float64(total)
		out[i] = int(exact)
		if out[i] < 1 {
			out[i] = 1
		}
		used += out[i]
		rems = append(rems, rem{idx: i, frac: exact - math.Floor(exact)})
	}
	sort.Slice(rems, func(a, b int) bool { return rems[a].frac > rems[b].frac })
	for i := 0; used < total && i < len(rems); i++ {
		out[rems[i].idx]++
		used++
	}
	return out
}

// Package routing implements the oblivious and semi-oblivious routing
// schemes of the paper and its baselines:
//
//   - Direct single-hop routing (for fully connected schedules)
//   - 2-hop Valiant load balancing (VLB), the ORN workhorse [31]
//   - 2h-hop h-dimensional optimal ORN routing [4]
//   - SORN routing (§4): 2-hop VLB inside cliques, 3 hops across cliques
//     (load-balancing intra hop → inter-clique circuit → final intra hop)
//
// Every Router exposes the hop sequence two ways: Route samples one
// concrete path for a packet (used by the slotted simulator), and Paths
// enumerates the full path distribution (used by the fluid throughput
// solver). The two MUST agree: Route's load-balancing hops draw from
// exactly the distribution Paths declares, using the caller's RNG. An
// earlier revision instead took the "next available" circuit at the
// injection slot — zero intrinsic wait, but the relay choice then
// correlates with the slot, and under arrivals that are themselves
// slot-correlated (saturation backlog refills, multi-plane staggering)
// the spray concentrates on a few relays and the Valiant throughput
// guarantee breaks (~25% below the fluid prediction at mixed SORN design
// points). The differential oracle (internal/oracle) cross-checks the
// two representations; the small extra wait for a randomly chosen relay's
// circuit is bounded by the intra-circuit spacing and is the price of the
// paper's throughput model actually holding.
package routing

import (
	"fmt"

	"repro/internal/matching"
	"repro/internal/rng"
	"repro/internal/schedule"
)

// Route is a hop sequence from source to destination, inclusive.
// Consecutive nodes are always distinct.
type Route []int

// Hops returns the number of links traversed.
func (r Route) Hops() int { return len(r) - 1 }

// Router chooses hop sequences at injection time (source routing).
type Router interface {
	// Name identifies the scheme in reports.
	Name() string
	// MaxHops is the worst-case path length in links.
	MaxHops() int
	// Route returns the hop sequence for one packet src→dst, sampled
	// from the same distribution Paths enumerates. slot is the absolute
	// time slot at injection (available to slot-aware schemes); r
	// supplies the randomness for load-balancing hops and must be
	// non-nil for every scheme that load-balances.
	Route(src, dst, slot int, r *rng.RNG) Route
	// RouteInto is the allocation-free fast path of Route: it appends the
	// same hop sequence to buf (which may be nil, or a zero-length reused
	// buffer) and returns the extended slice. The slotted simulator calls
	// it once per injected cell, so implementations must not allocate
	// beyond growing buf. The hotpath annotation makes every
	// implementation's transitive call tree allocation-checked; the
	// zero-alloc RouteInto benchmark test verifies the same property at
	// runtime.
	//
	//sornlint:hotpath
	RouteInto(buf Route, src, dst, slot int, r *rng.RNG) Route
	// Paths calls fn for every path of the time-averaged path
	// distribution with its probability (summing to 1 per src→dst pair).
	// The path is lent, not given: implementations build every path of
	// one call into the same buffer, so fn must neither modify path nor
	// keep it (or a subslice of it) after fn returns; copy it to keep it.
	Paths(src, dst int, fn func(path Route, prob float64))
}

// appendHop extends a path, skipping no-op hops (next == last node).
func appendHop(p Route, next int) Route {
	if len(p) > 0 && p[len(p)-1] == next {
		return p
	}
	return append(p, next)
}

// newPathBuf returns the one path buffer a Paths call lends to fn for
// every path it enumerates: a path of at most maxHops links has at most
// maxHops+1 nodes, so building into it never reallocates.
func newPathBuf(maxHops int) Route { return make(Route, 0, maxHops+1) }

// Direct routes every packet on its single direct circuit. It requires a
// schedule with full coverage and is the latency-optimal, throughput-1
// scheme for perfectly uniform traffic (paper §2: "If traffic was
// uniformly all-to-all, single-hop paths best use bandwidth").
type Direct struct {
	compiled *matching.Compiled
}

// NewDirect builds a direct router over a compiled schedule, verifying
// full coverage.
func NewDirect(c *matching.Compiled) (*Direct, error) {
	s := c.Schedule()
	if !s.FullCoverage() {
		return nil, fmt.Errorf("routing: direct routing requires full coverage")
	}
	return &Direct{compiled: c}, nil
}

// Name implements Router.
func (d *Direct) Name() string { return "direct" }

// MaxHops implements Router.
func (d *Direct) MaxHops() int { return 1 }

// Route implements Router.
func (d *Direct) Route(src, dst, slot int, r *rng.RNG) Route {
	return d.RouteInto(nil, src, dst, slot, r)
}

// RouteInto implements Router.
func (d *Direct) RouteInto(buf Route, src, dst, slot int, r *rng.RNG) Route {
	return append(buf, src, dst)
}

// Paths implements Router.
func (d *Direct) Paths(src, dst int, fn func(Route, float64)) {
	fn(Route{src, dst}, 1)
}

// VLB is 2-hop Valiant load balancing over a fully connected schedule:
// the first hop sprays to a uniformly random intermediate, the second hop
// is the direct circuit to the destination. Worst-case throughput 50% for
// arbitrary traffic — a guarantee that requires the spray to be random
// per packet, not slot-derived (see the package comment).
type VLB struct {
	n        int
	compiled *matching.Compiled
}

// NewVLB builds a VLB router over a compiled full-coverage schedule.
func NewVLB(c *matching.Compiled) (*VLB, error) {
	s := c.Schedule()
	if !s.FullCoverage() {
		return nil, fmt.Errorf("routing: VLB requires full coverage")
	}
	return &VLB{n: s.N, compiled: c}, nil
}

// Name implements Router.
func (v *VLB) Name() string { return "vlb" }

// MaxHops implements Router.
func (v *VLB) MaxHops() int { return 2 }

// Route implements Router. The load-balancing hop is uniform over the
// n−1 nodes other than src (drawing dst yields the direct path),
// matching Paths exactly.
func (v *VLB) Route(src, dst, slot int, r *rng.RNG) Route {
	return v.RouteInto(nil, src, dst, slot, r)
}

// RouteInto implements Router.
func (v *VLB) RouteInto(buf Route, src, dst, slot int, r *rng.RNG) Route {
	w := r.Intn(v.n - 1)
	if w >= src {
		w++
	}
	buf = append(buf, src)
	buf = appendHop(buf, w)
	return appendHop(buf, dst)
}

// Paths implements Router: the intermediate is uniform over the n−1
// destinations the round robin visits (including dst itself, which yields
// the direct path).
func (v *VLB) Paths(src, dst int, fn func(Route, float64)) {
	prob := 1 / float64(v.n-1)
	p := newPathBuf(v.MaxHops())
	for w := 0; w < v.n; w++ {
		if w == src {
			continue
		}
		p = append(p[:0], src)
		p = appendHop(p, w)
		p = appendHop(p, dst)
		fn(p, prob)
	}
}

// ORN is the 2h-hop routing of h-dimensional optimal ORNs: spray to a
// uniformly random intermediate by fixing one digit per hop (in the
// schedule's dimension order), then correct each digit toward the
// destination.
type ORN struct {
	orn *schedule.OptimalORN
}

// NewORN builds the router for an h-dimensional ORN schedule.
func NewORN(o *schedule.OptimalORN) *ORN { return &ORN{orn: o} }

// Name implements Router.
func (o *ORN) Name() string { return fmt.Sprintf("orn-%dd", o.orn.H) }

// MaxHops implements Router.
func (o *ORN) MaxHops() int { return 2 * o.orn.H }

// digitPath walks from cur to target one digit at a time (dimension order
// 0..h−1), appending each distinct intermediate node.
func (o *ORN) digitPath(p Route, target int) Route {
	cur := p[len(p)-1]
	a, h := o.orn.Base, o.orn.H
	stride := 1
	for d := 0; d < h; d++ {
		curDigit := (cur / stride) % a
		tgtDigit := (target / stride) % a
		cur = cur + (tgtDigit-curDigit)*stride
		p = appendHop(p, cur)
		stride *= a
	}
	return p
}

// Route implements Router.
func (o *ORN) Route(src, dst, slot int, r *rng.RNG) Route {
	return o.RouteInto(nil, src, dst, slot, r)
}

// RouteInto implements Router.
func (o *ORN) RouteInto(buf Route, src, dst, slot int, r *rng.RNG) Route {
	w := r.Intn(o.orn.N)
	buf = append(buf, src)
	buf = o.digitPath(buf, w)
	return o.digitPath(buf, dst)
}

// Paths implements Router: intermediates are uniform over all N nodes.
func (o *ORN) Paths(src, dst int, fn func(Route, float64)) {
	prob := 1 / float64(o.orn.N)
	p := newPathBuf(o.MaxHops())
	for w := 0; w < o.orn.N; w++ {
		p = append(p[:0], src)
		p = o.digitPath(p, w)
		p = o.digitPath(p, dst)
		fn(p, prob)
	}
}

// SORN implements the paper's semi-oblivious routing (§4, "Routing").
// Intra-clique traffic: 2-hop VLB within the clique. Inter-clique
// traffic: load-balancing intra hop to a clique peer w, then w's
// inter-clique circuit into the destination clique (landing on w's
// same-local-index peer), then the final intra-clique hop.
type SORN struct {
	s        *schedule.SORN
	compiled *matching.Compiled
}

// NewSORN builds the router for a built SORN schedule.
func NewSORN(s *schedule.SORN) *SORN {
	return &SORN{s: s, compiled: matching.Compile(s.Schedule)}
}

// Name implements Router.
func (s *SORN) Name() string { return "sorn" }

// MaxHops implements Router.
func (s *SORN) MaxHops() int {
	if s.s.Cliques.NumCliques() == 1 {
		return 2
	}
	return 3
}

// landing returns the node w's inter-clique circuit reaches in the target
// clique: the member with w's local index (fixed landing, see
// schedule.BuildSORN).
func (s *SORN) landing(w, targetClique int) int {
	cl := s.s.Cliques
	mem := cl.Members(targetClique)
	return mem[cl.LocalIndex(w)%len(mem)]
}

// Route implements Router. The load-balancing hop samples exactly the
// distribution Paths declares: uniform over clique peers for intra
// traffic, uniform over all clique members (src itself meaning "use own
// inter-clique circuit") for inter traffic.
func (s *SORN) Route(src, dst, slot int, r *rng.RNG) Route {
	return s.RouteInto(nil, src, dst, slot, r)
}

// RouteInto implements Router.
func (s *SORN) RouteInto(buf Route, src, dst, slot int, r *rng.RNG) Route {
	cl := s.s.Cliques
	mem := cl.Members(cl.CliqueOf(src))
	buf = append(buf, src)
	if cl.SameClique(src, dst) {
		if len(mem) > 1 {
			j := r.Intn(len(mem) - 1)
			if j >= cl.LocalIndex(src) {
				j++
			}
			buf = appendHop(buf, mem[j])
		}
		return appendHop(buf, dst)
	}
	w := mem[r.Intn(len(mem))]
	buf = appendHop(buf, w)
	y := s.landing(w, cl.CliqueOf(dst))
	buf = appendHop(buf, y)
	return appendHop(buf, dst)
}

// Paths implements Router. The load-balancing hop is uniform over the
// source's clique (including src itself: the slot in which src's own
// inter-clique or direct circuit is used first).
func (s *SORN) Paths(src, dst int, fn func(Route, float64)) {
	cl := s.s.Cliques
	mem := cl.Members(cl.CliqueOf(src))
	p := newPathBuf(s.MaxHops())
	if cl.SameClique(src, dst) {
		// Intra: intermediate uniform over clique members except src.
		if len(mem) == 1 {
			fn(append(p, src, dst), 1)
			return
		}
		prob := 1 / float64(len(mem)-1)
		for _, w := range mem {
			if w == src {
				continue
			}
			p = append(p[:0], src)
			p = appendHop(p, w)
			p = appendHop(p, dst)
			fn(p, prob)
		}
		return
	}
	// Inter: load-balancing hop uniform over all clique members
	// (choosing src itself means using src's own inter-clique circuit).
	prob := 1 / float64(len(mem))
	tc := cl.CliqueOf(dst)
	for _, w := range mem {
		y := s.landing(w, tc)
		p = append(p[:0], src)
		p = appendHop(p, w)
		p = appendHop(p, y)
		p = appendHop(p, dst)
		fn(p, prob)
	}
}

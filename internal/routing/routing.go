// Package routing implements the oblivious and semi-oblivious routing
// schemes of the paper and its baselines:
//
//   - Direct single-hop routing (for fully connected schedules)
//   - 2-hop Valiant load balancing (VLB), the ORN workhorse [31]
//   - 2h-hop h-dimensional optimal ORN routing [4]
//   - SORN routing (§4): 2-hop VLB inside cliques, 3 hops across cliques
//     (load-balancing intra hop → inter-clique circuit → final intra hop)
//
// Every Router exposes the hop sequence three ways: RouteInto samples
// one concrete path for a packet (used by the slotted simulator), Paths
// enumerates the full path distribution (the distribution's
// specification, used by the oracle, the blast-radius functions and the
// tests), and AddLoads adds that distribution's expected link loads
// without building paths (used by the fluid throughput solver, bit for
// bit what accumulating Paths gives). RouteInto and Paths MUST agree:
// RouteInto's load-balancing hops draw from exactly the distribution
// Paths declares, using the caller's RNG. An earlier revision instead
// took the "next available" circuit at the injection slot — zero
// intrinsic wait, but the relay choice then
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
	// N is the node count the router serves: every src and dst passed
	// to RouteInto or Paths must lie in [0, N).
	N() int
	// MaxHops is the worst-case path length in links.
	MaxHops() int
	// RouteInto appends the hop sequence for one packet src→dst,
	// sampled from the same distribution Paths enumerates, to buf
	// (which may be nil, or a zero-length reused buffer) and returns the
	// extended slice. slot is the absolute time slot at injection
	// (available to slot-aware schemes); r supplies the randomness for
	// load-balancing hops and must be non-nil for every scheme that
	// load-balances. The slotted simulator calls it once per injected
	// cell, so implementations must not allocate beyond growing buf.
	// The hotpath annotation makes every implementation's transitive
	// call tree allocation-checked; the zero-alloc RouteInto test
	// verifies the same property at runtime.
	//
	//sornlint:hotpath
	RouteInto(buf Route, src, dst, slot int, r *rng.RNG) Route
	// Paths calls fn for every path of the time-averaged path
	// distribution with its probability (summing to 1 per src→dst pair).
	// Like RouteInto it builds into a caller-owned buffer: every path of
	// one call is written into buf's backing array from index 0 (buf's
	// contents are overwritten; nil is fine), and Paths returns the
	// buffer, replaced by a larger one if it was too small (at least
	// MaxHops()+1), for the caller to pass to its next call. A caller that reuses one buffer this way
	// makes the whole enumeration allocation-free. The path is lent, not
	// given: fn must neither modify path nor keep it (or a subslice of
	// it) after fn returns; copy it to keep it.
	Paths(buf Route, src, dst int, fn func(path Route, prob float64)) Route
	// AddLoads adds the expected link loads of rate units of src→dst
	// demand to load, a row-major matrix with N columns and row stride
	// stride ≥ N (link u→v at load[u·stride+v]), and returns hopWeighted
	// plus the demand-weighted hop count. It walks exactly the
	// distribution Paths enumerates, in Paths order: for each path,
	// w := rate·prob is added to every hop's link in hop order, and
	// w·Hops() to the running hopWeighted. Keeping that order keeps
	// every float sum bit-identical to accumulating through Paths, which
	// stays the distribution's specification. Hops are not range-checked:
	// the caller checks N() once and sizes load to hold N rows. The fluid
	// solver calls it once per demand pair, so implementations build no
	// Route and must not allocate; the one exception is Relabeled, which
	// only the oracle's relabeling check uses.
	//
	//sornlint:hotpath
	AddLoads(load []float64, stride, src, dst int, rate, hopWeighted float64) float64
}

// appendHop extends a path, skipping no-op hops (next == last node).
func appendHop(p Route, next int) Route {
	if len(p) > 0 && p[len(p)-1] == next {
		return p
	}
	return append(p, next)
}

// pathBuf returns buf emptied, or a new buffer when buf cannot hold a
// path of maxHops links (maxHops+1 nodes), so that building any path of
// a Paths call into it never reallocates.
func pathBuf(buf Route, maxHops int) Route {
	if cap(buf) < maxHops+1 {
		return make(Route, 0, maxHops+1)
	}
	return buf[:0]
}

// Direct routes every packet on its single direct circuit. It requires a
// schedule with full coverage and is the latency-optimal, throughput-1
// scheme for perfectly uniform traffic (paper §2: "If traffic was
// uniformly all-to-all, single-hop paths best use bandwidth").
type Direct struct {
	n int
}

// NewDirect builds a direct router over a schedule, verifying full
// coverage.
func NewDirect(s *matching.Schedule) (*Direct, error) {
	if !s.FullCoverage() {
		return nil, fmt.Errorf("routing: direct routing requires full coverage")
	}
	return &Direct{n: s.N}, nil
}

// Name implements Router.
func (d *Direct) Name() string { return "direct" }

// N implements Router.
func (d *Direct) N() int { return d.n }

// MaxHops implements Router.
func (d *Direct) MaxHops() int { return 1 }

// RouteInto implements Router.
func (d *Direct) RouteInto(buf Route, src, dst, slot int, r *rng.RNG) Route {
	return append(buf, src, dst)
}

// Paths implements Router.
func (d *Direct) Paths(buf Route, src, dst int, fn func(Route, float64)) Route {
	p := append(pathBuf(buf, d.MaxHops()), src, dst)
	fn(p, 1)
	return p
}

// AddLoads implements Router: the direct path carries the whole rate.
func (d *Direct) AddLoads(load []float64, stride, src, dst int, rate, hopWeighted float64) float64 {
	load[src*stride+dst] += rate
	return hopWeighted + rate
}

// VLB is 2-hop Valiant load balancing over a fully connected schedule:
// the first hop sprays to a uniformly random intermediate, the second hop
// is the direct circuit to the destination. Worst-case throughput 50% for
// arbitrary traffic — a guarantee that requires the spray to be random
// per packet, not slot-derived (see the package comment).
type VLB struct {
	n int
}

// NewVLB builds a VLB router over a full-coverage schedule.
func NewVLB(s *matching.Schedule) (*VLB, error) {
	if !s.FullCoverage() {
		return nil, fmt.Errorf("routing: VLB requires full coverage")
	}
	return &VLB{n: s.N}, nil
}

// Name implements Router.
func (v *VLB) Name() string { return "vlb" }

// N implements Router.
func (v *VLB) N() int { return v.n }

// MaxHops implements Router.
func (v *VLB) MaxHops() int { return 2 }

// RouteInto implements Router. The load-balancing hop is uniform over
// the n−1 nodes other than src (drawing dst yields the direct path),
// matching Paths exactly.
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
func (v *VLB) Paths(buf Route, src, dst int, fn func(Route, float64)) Route {
	prob := 1 / float64(v.n-1)
	p := pathBuf(buf, v.MaxHops())
	for w := 0; w < v.n; w++ {
		if w == src {
			continue
		}
		p = append(p[:0], src)
		p = appendHop(p, w)
		p = appendHop(p, dst)
		fn(p, prob)
	}
	return p
}

// AddLoads implements Router over Paths' intermediates in Paths order;
// w = dst collapses to the direct path.
func (v *VLB) AddLoads(load []float64, stride, src, dst int, rate, hopWeighted float64) float64 {
	w := rate * (1 / float64(v.n-1))
	for m := 0; m < v.n; m++ {
		switch m {
		case src:
			continue
		case dst:
			load[src*stride+dst] += w
			hopWeighted += w
		default:
			load[src*stride+m] += w
			load[m*stride+dst] += w
			hopWeighted += w * 2
		}
	}
	return hopWeighted
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

// N implements Router.
func (o *ORN) N() int { return o.orn.N }

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

// RouteInto implements Router.
func (o *ORN) RouteInto(buf Route, src, dst, slot int, r *rng.RNG) Route {
	w := r.Intn(o.orn.N)
	buf = append(buf, src)
	buf = o.digitPath(buf, w)
	return o.digitPath(buf, dst)
}

// Paths implements Router: intermediates are uniform over all N nodes.
func (o *ORN) Paths(buf Route, src, dst int, fn func(Route, float64)) Route {
	prob := 1 / float64(o.orn.N)
	p := pathBuf(buf, o.MaxHops())
	for w := 0; w < o.orn.N; w++ {
		p = append(p[:0], src)
		p = o.digitPath(p, w)
		p = o.digitPath(p, dst)
		fn(p, prob)
	}
	return p
}

// AddLoads implements Router over Paths' intermediates in Paths order.
func (o *ORN) AddLoads(load []float64, stride, src, dst int, rate, hopWeighted float64) float64 {
	w := rate * (1 / float64(o.orn.N))
	for m := 0; m < o.orn.N; m++ {
		hops := o.addDigitLoads(load, stride, src, m, w) + o.addDigitLoads(load, stride, m, dst, w)
		hopWeighted += w * float64(hops)
	}
	return hopWeighted
}

// addDigitLoads adds w to every link of digitPath's walk from cur to
// target, skipping the digits that need no correction as digitPath's
// appendHop does, and returns the number of links.
func (o *ORN) addDigitLoads(load []float64, stride, cur, target int, w float64) int {
	a, h := o.orn.Base, o.orn.H
	hops, digit := 0, 1
	for d := 0; d < h; d++ {
		next := cur + ((target/digit)%a-(cur/digit)%a)*digit
		if next != cur {
			load[cur*stride+next] += w
			hops++
			cur = next
		}
		digit *= a
	}
	return hops
}

// SORN implements the paper's semi-oblivious routing (§4, "Routing").
// Intra-clique traffic: 2-hop VLB within the clique. Inter-clique
// traffic: load-balancing intra hop to a clique peer w, then w's
// inter-clique circuit into the destination clique (landing on w's
// same-local-index peer), then the final intra-clique hop.
type SORN struct {
	s  *schedule.SORN
	nc int
	// land[w·nc+c] is the node w's inter-clique circuit reaches in
	// clique c: the member with w's local index (fixed landing, see
	// schedule.BuildSORN).
	land []int32
}

// NewSORN builds the router for a built SORN schedule.
func NewSORN(s *schedule.SORN) *SORN {
	cl := s.Cliques
	nc := cl.NumCliques()
	land := make([]int32, cl.N()*nc)
	for w := 0; w < cl.N(); w++ {
		for c := 0; c < nc; c++ {
			mem := cl.Members(c)
			land[w*nc+c] = int32(mem[cl.LocalIndex(w)%len(mem)])
		}
	}
	return &SORN{s: s, nc: nc, land: land}
}

// Name implements Router.
func (s *SORN) Name() string { return "sorn" }

// N implements Router.
func (s *SORN) N() int { return s.s.Cliques.N() }

// MaxHops implements Router.
func (s *SORN) MaxHops() int {
	if s.nc == 1 {
		return 2
	}
	return 3
}

// landing returns the node w's inter-clique circuit reaches in the target
// clique.
func (s *SORN) landing(w, targetClique int) int {
	return int(s.land[w*s.nc+targetClique])
}

// RouteInto implements Router. The load-balancing hop samples exactly
// the distribution Paths declares: uniform over clique peers for intra
// traffic, uniform over all clique members (src itself meaning "use own
// inter-clique circuit") for inter traffic.
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
func (s *SORN) Paths(buf Route, src, dst int, fn func(Route, float64)) Route {
	cl := s.s.Cliques
	mem := cl.Members(cl.CliqueOf(src))
	p := pathBuf(buf, s.MaxHops())
	if cl.SameClique(src, dst) {
		// Intra: intermediate uniform over clique members except src.
		if len(mem) == 1 {
			p = append(p, src, dst)
			fn(p, 1)
			return p
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
		return p
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
	return p
}

// AddLoads implements Router over Paths' load-balancing hops in Paths
// order, with appendHop's collapses: an intra intermediate equal to dst
// and an inter one equal to src drop a hop, as does a landing node equal
// to dst. The landing node lies in dst's clique, so it never equals src
// or the intermediate.
func (s *SORN) AddLoads(load []float64, stride, src, dst int, rate, hopWeighted float64) float64 {
	cl := s.s.Cliques
	mem := cl.Members(cl.CliqueOf(src))
	if cl.SameClique(src, dst) {
		if len(mem) == 1 {
			load[src*stride+dst] += rate
			return hopWeighted + rate
		}
		w := rate * (1 / float64(len(mem)-1))
		for _, m := range mem {
			switch m {
			case src:
				continue
			case dst:
				load[src*stride+dst] += w
				hopWeighted += w
			default:
				load[src*stride+m] += w
				load[m*stride+dst] += w
				hopWeighted += w * 2
			}
		}
		return hopWeighted
	}
	w := rate * (1 / float64(len(mem)))
	land := s.land[cl.CliqueOf(dst):]
	for _, m := range mem {
		y := int(land[m*s.nc])
		hops := 3
		if m == src {
			hops--
		} else {
			load[src*stride+m] += w
		}
		load[m*stride+y] += w
		if y == dst {
			hops--
		} else {
			load[y*stride+dst] += w
		}
		hopWeighted += w * float64(hops)
	}
	return hopWeighted
}

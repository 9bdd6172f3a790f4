package routing

import (
	"fmt"

	"repro/internal/rng"
)

// Relabeled adapts a router to a node-relabeled network: with perm a
// permutation of [0, N), node u of the inner network is node perm[u] of
// the relabeled one. The relabeled router serves (src, dst) by asking
// the inner router for (perm⁻¹(src), perm⁻¹(dst)) and mapping every hop
// through perm — so over a schedule relabeled the same way (see
// matching.Schedule.Relabel) it realizes the identical scheme under new
// names. Any label-oblivious throughput or latency metric must be
// invariant under this wrapping; the oracle harness checks exactly that.
type Relabeled struct {
	inner     Router
	perm, inv []int
}

// NewRelabeled wraps inner for the relabeling perm.
func NewRelabeled(inner Router, perm []int) (*Relabeled, error) {
	inv := make([]int, len(perm))
	seen := make([]bool, len(perm))
	for u, v := range perm {
		if v < 0 || v >= len(perm) || seen[v] {
			return nil, fmt.Errorf("routing: invalid relabel permutation entry %d->%d", u, v)
		}
		seen[v] = true
		inv[v] = u
	}
	p := make([]int, len(perm))
	copy(p, perm)
	return &Relabeled{inner: inner, perm: p, inv: inv}, nil
}

// Name implements Router.
func (r *Relabeled) Name() string { return r.inner.Name() + "+relabel" }

// N implements Router.
func (r *Relabeled) N() int { return len(r.perm) }

// MaxHops implements Router.
func (r *Relabeled) MaxHops() int { return r.inner.MaxHops() }

// RouteInto implements Router: the inner router writes its hops into
// buf, which are then renamed in place — no allocation beyond buf.
func (r *Relabeled) RouteInto(buf Route, src, dst, slot int, g *rng.RNG) Route {
	base := len(buf)
	buf = r.inner.RouteInto(buf, r.inv[src], r.inv[dst], slot, g)
	for i := base; i < len(buf); i++ {
		buf[i] = r.perm[buf[i]]
	}
	return buf
}

// Paths implements Router: the inner distribution with every hop
// renamed, lent to fn like the inner path. buf holds both: the inner
// router builds into its first MaxHops()+1 entries and the renamed
// path goes into the next MaxHops()+1.
func (r *Relabeled) Paths(buf Route, src, dst int, fn func(Route, float64)) Route {
	h := r.MaxHops() + 1
	buf = pathBuf(buf, 2*h-1)
	mapped := buf[h : h : 2*h]
	r.inner.Paths(buf[:0:h], r.inv[src], r.inv[dst], func(p Route, prob float64) {
		mapped = mapped[:0]
		for _, u := range p {
			mapped = append(mapped, r.perm[u])
		}
		fn(mapped, prob)
	})
	return buf
}

// AddLoads implements Router through Paths, which renames each inner
// path before its loads are added. Relabeled serves the oracle's
// relabeling check, not production solves, so its visit closure and
// path buffer allocate on every call.
//
//sornlint:coldpath -- oracle relabeling check only; allocates per call
func (r *Relabeled) AddLoads(load []float64, stride, src, dst int, rate, hopWeighted float64) float64 {
	r.Paths(nil, src, dst, func(p Route, prob float64) {
		w := rate * prob
		hopWeighted += w * float64(p.Hops())
		for i := 0; i+1 < len(p); i++ {
			load[p[i]*stride+p[i+1]] += w
		}
	})
	return hopWeighted
}

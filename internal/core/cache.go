package core

import (
	"math"
	"sync"

	"repro/internal/netsim"
)

// buildKey identifies one immutable network build: (kind, N, Nc, q).
// The uplink count is not part of it — every design builds the same
// schedule regardless of planes, which only phase-stagger the schedule
// inside netsim.
type buildKey struct {
	kind  string
	n, nc int
	qbits uint64 // math.Float64bits of q
}

// BuildCache memoizes schedule/topology/routing construction. A dense
// sweep revisits the same builds constantly — every Fig2f point at one
// locality shares its SORN with the q-sweep at the equivalent q, a
// diurnal trace repeats its clairvoyant builds every period, and the
// FCT/latency comparisons rebuild the same baselines per point — and a
// SORN build is O(n²) schedule synthesis, so memoizing it moves sweep
// setup off the critical path entirely.
//
// Cached Networks are shared READ-ONLY, including across concurrently
// executing sweep points: a built Schedule is never mutated, and every
// Router routes via RouteInto with caller-supplied rng state (see the
// routing package), so concurrent sims can share one build without
// synchronization. The one mutating consumer in the tree — Adaptive,
// which swaps its Network's schedule on replan — must never be handed a
// cached build; it constructs privately via NewSORN.
type BuildCache struct {
	mu sync.Mutex
	m  map[buildKey]*buildEntry
}

// buildEntry is a singleflight slot: the map lookup is mutex-guarded but
// the build itself runs under the entry's once, so two sweep workers
// racing for the same key build it exactly once and both wait for it.
type buildEntry struct {
	once sync.Once
	nw   *Network
	err  error
}

// NewBuildCache returns an empty cache.
func NewBuildCache() *BuildCache {
	return &BuildCache{m: make(map[buildKey]*buildEntry)}
}

// SharedBuilds is the process-wide cache the experiment sweeps share.
// Builds are deterministic pure functions of their key, so sharing one
// cache across experiments (and test runs in one process) is safe and
// maximizes hits.
var SharedBuilds = NewBuildCache()

// Reset drops every cached build; Networks already handed out stay
// valid. A long-lived process that visits an unbounded set of keys (a
// fuzzer driving the sweeps with random sizes and localities) calls it
// between runs, so the cache does not keep every build it ever made.
func (c *BuildCache) Reset() {
	c.mu.Lock()
	clear(c.m)
	c.mu.Unlock()
}

// get returns the cached network for key, building it on first use.
// Errors are cached too: a sweep asking for an impossible build (say,
// nc not dividing n) fails fast on every point, not just the first.
//
//sornlint:coldpath -- one-time sweep setup, never on a per-slot path
func (c *BuildCache) get(key buildKey, build func() (*Network, error)) (*Network, error) {
	c.mu.Lock()
	e := c.m[key]
	if e == nil {
		e = &buildEntry{}
		c.m[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.nw, e.err = build() })
	return e.nw, e.err
}

// SORN returns the cached semi-oblivious network for locality x — the
// memoized NewSORN. Localities mapping to the same clamped q* share one
// entry.
func (c *BuildCache) SORN(n, nc int, locality float64) (*Network, error) {
	q, err := sornQ(locality)
	if err != nil {
		return nil, err
	}
	return c.SORNWithQ(n, nc, q)
}

// SORNWithQ returns the cached semi-oblivious network with an explicit
// oversubscription ratio — the memoized NewSORNWithQ.
func (c *BuildCache) SORNWithQ(n, nc int, q float64) (*Network, error) {
	return c.get(buildKey{kind: "sorn", n: n, nc: nc, qbits: math.Float64bits(q)},
		func() (*Network, error) { return NewSORNWithQ(n, nc, q) })
}

// ORN1D returns the cached flat round-robin baseline — the memoized
// NewORN1D.
func (c *BuildCache) ORN1D(n int) (*Network, error) {
	return c.get(buildKey{kind: "orn-1d", n: n},
		func() (*Network, error) { return NewORN1D(n) })
}

// ORN returns the cached h-dimensional optimal ORN baseline — the
// memoized NewORN. The dimension rides in the nc key slot.
func (c *BuildCache) ORN(n, h int) (*Network, error) {
	return c.get(buildKey{kind: "orn-nd", n: n, nc: h},
		func() (*Network, error) { return NewORN(n, h) })
}

// SimPool holds one reusable simulator per sweep worker. Worker w's slot
// is touched only by the sweep point currently running on worker w
// (sweep.Point.Worker indexes are held by at most one in-flight point),
// so the pool needs no locking; determinism needs nothing from the pool
// because Sim.Reset restores exactly the state a fresh New would build.
type SimPool struct {
	sims []*netsim.Sim
}

// NewSimPool returns a pool for the given worker count (sweep
// Config.Workers(points)).
func NewSimPool(workers int) *SimPool {
	return &SimPool{sims: make([]*netsim.Sim, workers)}
}

// Acquire returns worker w's simulator, reset to run nw under opts. The
// pooled Sim is reused whenever the node count matches (Reset handles
// schedule, planes, seed, and observer changes); a different N — the one
// dimension Reset refuses — rebuilds the slot.
func (p *SimPool) Acquire(w int, nw *Network, opts SimOptions) (*netsim.Sim, error) {
	cfg := nw.simConfig(opts)
	if s := p.sims[w]; s != nil && s.N() == nw.Schedule.N {
		if err := s.Reset(cfg); err != nil {
			return nil, err
		}
		return s, nil
	}
	s, err := netsim.New(cfg)
	if err != nil {
		return nil, err
	}
	p.sims[w] = s
	return s, nil
}

// Package rng provides a small, deterministic random number generator and
// the distributions the simulator and workload generators need.
//
// Everything in this repository that is stochastic takes an explicit *rng.RNG
// seeded by the caller, so every experiment, test, and benchmark is exactly
// reproducible. The generator is xoshiro256**, seeded through splitmix64,
// which is the conventional pairing: splitmix64 decorrelates arbitrary user
// seeds (including 0) before they reach the xoshiro state.
package rng

import (
	"math"
	"math/bits"
)

// RNG is a deterministic pseudo-random number generator (xoshiro256**).
// It is not safe for concurrent use; give each goroutine its own RNG,
// e.g. via Split.
type RNG struct {
	s [4]uint64
}

// New returns an RNG seeded from seed via splitmix64.
func New(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// Split returns a new RNG deterministically derived from r's current state.
// Use it to hand independent streams to sub-components without sharing.
func (r *RNG) Split() *RNG {
	return New(r.Uint64() ^ 0xa5a5a5a5deadbeef)
}

// SplitN returns n independent streams derived serially from r, with the
// same derivation as n consecutive Split calls. Returning values rather
// than pointers lets callers hold the streams in one contiguous
// allocation (e.g. one stream per simulated node).
func (r *RNG) SplitN(n int) []RNG {
	out := make([]RNG, n)
	r.SplitNInto(out)
	return out
}

// SplitNInto fills dst with len(dst) independent streams derived serially
// from r — the same derivation as SplitN, but into a caller-owned slice so
// a pooled simulator can reseed its per-node streams without reallocating.
func (r *RNG) SplitNInto(dst []RNG) {
	for i := range dst {
		dst[i] = *New(r.Uint64() ^ 0xa5a5a5a5deadbeef)
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	// Lemire's nearly-divisionless bounded rejection sampling.
	un := uint64(n)
	v := r.Uint64()
	hi, lo := bits.Mul64(v, un)
	if lo < un {
		thresh := (-un) % un
		for lo < thresh {
			v = r.Uint64()
			hi, lo = bits.Mul64(v, un)
		}
	}
	return int(hi)
}

// Int63 returns a uniformly distributed non-negative int64.
func (r *RNG) Int63() int64 { return int64(r.Uint64() >> 1) }

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a uniformly random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes a slice of ints in place (Fisher–Yates).
func (r *RNG) Shuffle(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Exp returns an exponentially distributed float64 with the given rate
// (mean 1/rate). It panics if rate <= 0.
func (r *RNG) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exp called with rate <= 0")
	}
	u := r.Float64()
	// 1-u is in (0, 1], so the log is finite.
	return -math.Log(1-u) / rate
}

// Poisson returns a Poisson-distributed int with the given mean, using
// Knuth's product method for small means and a normal approximation with
// continuity correction for large ones.
func (r *RNG) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 64 {
		// Normal approximation; adequate for workload arrival counts.
		n := int(math.Round(mean + math.Sqrt(mean)*r.Norm()))
		if n < 0 {
			n = 0
		}
		return n
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Norm returns a standard normal variate (Box–Muller, one value per call).
func (r *RNG) Norm() float64 {
	u1 := r.Float64()
	//sornlint:ignore floateq -- rejects the exact 0 Float64 can return; log(0) guard
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Zipf returns a Zipf-distributed int in [0, n) with skew s >= 0.
// s = 0 degenerates to uniform. Sampling is by inversion over the
// precomputed CDF held in z.
type Zipf struct {
	cdf []float64
	r   *RNG
}

// NewZipf builds a Zipf sampler over [0, n) with exponent s.
func NewZipf(r *RNG, n int, s float64) *Zipf {
	if n <= 0 {
		panic("rng: NewZipf called with n <= 0")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf, r: r}
}

// Next returns the next Zipf sample.
func (z *Zipf) Next() int {
	u := z.r.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// EmpiricalCDF samples from a piecewise-linear empirical CDF given as
// (value, cumulative probability) knots, as published for datacenter
// flow-size distributions (e.g. pFabric web search / data mining).
type EmpiricalCDF struct {
	values []float64
	probs  []float64
}

// NewEmpiricalCDF builds a sampler. probs must be non-decreasing, start
// at >= 0, and end at 1; values must be non-decreasing and the slices must
// have equal length >= 2. It panics on malformed input because these CDFs
// are compile-time constants in this repository.
func NewEmpiricalCDF(values, probs []float64) *EmpiricalCDF {
	if len(values) != len(probs) || len(values) < 2 {
		panic("rng: malformed empirical CDF (length)")
	}
	for i := 1; i < len(values); i++ {
		if values[i] < values[i-1] || probs[i] < probs[i-1] {
			panic("rng: malformed empirical CDF (monotonicity)")
		}
	}
	//sornlint:ignore floateq -- published CDFs end at the literal constant 1
	if probs[len(probs)-1] != 1 {
		panic("rng: empirical CDF must end at probability 1")
	}
	return &EmpiricalCDF{values: values, probs: probs}
}

// Sample draws one value by inverse-transform sampling with linear
// interpolation between knots.
func (e *EmpiricalCDF) Sample(r *RNG) float64 {
	u := r.Float64()
	lo, hi := 0, len(e.probs)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if e.probs[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return e.values[0]
	}
	p0, p1 := e.probs[lo-1], e.probs[lo]
	v0, v1 := e.values[lo-1], e.values[lo]
	//sornlint:ignore floateq -- guards the division below against exactly-equal knots
	if p1 == p0 {
		return v1
	}
	frac := (u - p0) / (p1 - p0)
	return v0 + frac*(v1-v0)
}

// Mean returns the mean of the piecewise-linear distribution, used to
// convert a target load into a flow arrival rate.
func (e *EmpiricalCDF) Mean() float64 {
	mean := 0.0
	for i := 1; i < len(e.values); i++ {
		w := e.probs[i] - e.probs[i-1]
		mean += w * (e.values[i] + e.values[i-1]) / 2
	}
	return mean
}

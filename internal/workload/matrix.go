// Package workload generates the traffic the paper evaluates against:
// locality-structured traffic matrices (a fraction x of each node's demand
// stays inside its clique — §3 "Spatial Locality"), gravity-style
// aggregated inter-clique matrices (§3 "Aggregated Traffic Matrices"),
// hotspot and permutation adversaries, and flow workloads with the
// published pFabric flow-size distributions [2] the paper's Figure 2(f)
// simulation uses.
package workload

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/schedule"
)

// Matrix is a traffic matrix of demand rates, in units of node bandwidth
// (1.0 = a node's full capacity). Rates[s][d] is the rate from s to d;
// the diagonal is zero. A saturation matrix has all row sums equal to 1.
type Matrix struct {
	N     int
	Rates [][]float64
}

// NewMatrix returns an all-zero matrix over n nodes.
func NewMatrix(n int) *Matrix {
	m := &Matrix{N: n, Rates: make([][]float64, n)}
	for i := range m.Rates {
		m.Rates[i] = make([]float64, n)
	}
	return m
}

// Validate checks shape, non-negativity, and a zero diagonal.
func (m *Matrix) Validate() error {
	if len(m.Rates) != m.N {
		return fmt.Errorf("workload: matrix has %d rows, want %d", len(m.Rates), m.N)
	}
	for s, row := range m.Rates {
		if len(row) != m.N {
			return fmt.Errorf("workload: row %d has %d cols, want %d", s, len(row), m.N)
		}
		for d, r := range row {
			if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
				return fmt.Errorf("workload: rate[%d][%d] = %f invalid", s, d, r)
			}
			//sornlint:ignore floateq -- validates an exact-zero diagonal
			if s == d && r != 0 {
				return fmt.Errorf("workload: nonzero self traffic at node %d", s)
			}
		}
	}
	return nil
}

// RowSum returns the total demand sourced by node s.
func (m *Matrix) RowSum(s int) float64 {
	sum := 0.0
	for _, r := range m.Rates[s] {
		sum += r
	}
	return sum
}

// ColSum returns the total demand destined to node d.
func (m *Matrix) ColSum(d int) float64 {
	sum := 0.0
	for s := 0; s < m.N; s++ {
		sum += m.Rates[s][d]
	}
	return sum
}

// MaxRowSum returns the largest row sum (the binding source load).
func (m *Matrix) MaxRowSum() float64 {
	max := 0.0
	for s := 0; s < m.N; s++ {
		if v := m.RowSum(s); v > max {
			max = v
		}
	}
	return max
}

// Scale multiplies every rate by f in place and returns m.
func (m *Matrix) Scale(f float64) *Matrix {
	for _, row := range m.Rates {
		for d := range row {
			row[d] *= f
		}
	}
	return m
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.N)
	for s, row := range m.Rates {
		copy(c.Rates[s], row)
	}
	return c
}

// Relabel returns the matrix of the node-relabeled network: node u's
// demand becomes node perm[u]'s, so rate(s,d) moves to (perm[s], perm[d]).
// Entries are copied bit-for-bit — relabeling must not perturb a single
// rate, since the oracle harness checks throughput invariance under it.
func (m *Matrix) Relabel(perm []int) (*Matrix, error) {
	if len(perm) != m.N {
		return nil, fmt.Errorf("workload: relabel permutation over %d nodes, matrix over %d", len(perm), m.N)
	}
	seen := make([]bool, m.N)
	for u, v := range perm {
		if v < 0 || v >= m.N || seen[v] {
			return nil, fmt.Errorf("workload: invalid permutation entry %d->%d", u, v)
		}
		seen[v] = true
	}
	out := NewMatrix(m.N)
	for s := 0; s < m.N; s++ {
		for d := 0; d < m.N; d++ {
			out.Rates[perm[s]][perm[d]] = m.Rates[s][d]
		}
	}
	return out, nil
}

// IntraFraction returns the fraction of total demand that is intra-clique
// under the given partition — the locality ratio x of §3.
func (m *Matrix) IntraFraction(cl *schedule.Cliques) float64 {
	intra, total := 0.0, 0.0
	for s, row := range m.Rates {
		for d, r := range row {
			total += r
			if cl.SameClique(s, d) {
				intra += r
			}
		}
	}
	//sornlint:ignore floateq -- exact zero: the empty-matrix sentinel
	if total == 0 {
		return 0
	}
	return intra / total
}

// Aggregate returns the Nc×Nc clique-level traffic matrix — the
// aggregated pattern the paper argues is stable and predictable (§3).
func (m *Matrix) Aggregate(cl *schedule.Cliques) [][]float64 {
	nc := cl.NumCliques()
	agg := make([][]float64, nc)
	for i := range agg {
		agg[i] = make([]float64, nc)
	}
	for s, row := range m.Rates {
		for d, r := range row {
			agg[cl.CliqueOf(s)][cl.CliqueOf(d)] += r
		}
	}
	return agg
}

// Uniform returns the all-to-all saturation matrix: each node spreads one
// unit of demand evenly over the other n−1 nodes.
func Uniform(n int) *Matrix {
	m := NewMatrix(n)
	r := 1 / float64(n-1)
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s != d {
				m.Rates[s][d] = r
			}
		}
	}
	return m
}

// Locality returns the saturation matrix with locality ratio x: each node
// sends a fraction x of its unit demand uniformly inside its clique and
// 1−x uniformly to all nodes outside it. Cliques of size 1 send all
// demand outside regardless of x.
func Locality(cl *schedule.Cliques, x float64) (*Matrix, error) {
	if x < 0 || x > 1 {
		return nil, fmt.Errorf("workload: locality ratio %f outside [0,1]", x)
	}
	n := cl.N()
	m := NewMatrix(n)
	for s := 0; s < n; s++ {
		k := cl.Size(cl.CliqueOf(s))
		xIntra := x
		if k == 1 {
			xIntra = 0
		}
		if n == k {
			xIntra = 1
		}
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			if cl.SameClique(s, d) {
				m.Rates[s][d] = xIntra / float64(k-1)
			} else {
				m.Rates[s][d] = (1 - xIntra) / float64(n-k)
			}
		}
	}
	return m, nil
}

// Gravity returns a saturation matrix whose clique-to-clique aggregate
// follows the outer product of the given clique masses (a gravity model,
// as production DCNs report for cluster-level traffic [22]); traffic is
// uniform within each clique pair. mass must have one positive entry per
// clique.
func Gravity(cl *schedule.Cliques, mass []float64) (*Matrix, error) {
	nc := cl.NumCliques()
	if len(mass) != nc {
		return nil, fmt.Errorf("workload: %d masses for %d cliques", len(mass), nc)
	}
	total := 0.0
	for c, g := range mass {
		if g <= 0 {
			return nil, fmt.Errorf("workload: clique %d mass %f must be positive", c, g)
		}
		total += g
	}
	n := cl.N()
	m := NewMatrix(n)
	for s := 0; s < n; s++ {
		cs := cl.CliqueOf(s)
		// Node s's unit demand splits across destination cliques in
		// proportion to their mass (excluding itself from its own clique).
		for cd := 0; cd < nc; cd++ {
			members := cl.Members(cd)
			weight := mass[cd] / total
			count := len(members)
			if cd == cs {
				count--
			}
			if count == 0 {
				continue
			}
			per := weight / float64(count)
			for _, d := range members {
				if d != s {
					m.Rates[s][d] = per
				}
			}
		}
		// Renormalize the row to exactly 1 (self-exclusion skews it).
		if rs := m.RowSum(s); rs > 0 {
			for d := range m.Rates[s] {
				m.Rates[s][d] /= rs
			}
		}
	}
	return m, nil
}

// Hotspot returns a matrix where `hot` nodes receive a fraction frac of
// every node's demand (spread evenly over the hot set), with the
// remainder uniform — the bursty pattern reconfigurable designs struggle
// to chase (§3).
func Hotspot(n, hot int, frac float64) (*Matrix, error) {
	if hot < 1 || hot >= n {
		return nil, fmt.Errorf("workload: hot set size %d out of range for n=%d", hot, n)
	}
	if frac < 0 || frac > 1 {
		return nil, fmt.Errorf("workload: hotspot fraction %f outside [0,1]", frac)
	}
	m := NewMatrix(n)
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			m.Rates[s][d] = (1 - frac) / float64(n-1)
			if d < hot {
				m.Rates[s][d] += frac / float64(hot)
			}
		}
		// Self-exclusion makes hot rows sum slightly differently;
		// renormalize to a saturation row.
		rs := m.RowSum(s)
		for d := range m.Rates[s] {
			m.Rates[s][d] /= rs
		}
	}
	return m, nil
}

// Permutation returns the adversarial matrix in which node i sends its
// entire unit demand to perm[i]. perm must be a fixed-point-free
// permutation.
func Permutation(perm []int) (*Matrix, error) {
	n := len(perm)
	seen := make([]bool, n)
	for s, d := range perm {
		if d < 0 || d >= n || d == s || seen[d] {
			return nil, fmt.Errorf("workload: invalid permutation at %d->%d", s, d)
		}
		seen[d] = true
	}
	m := NewMatrix(n)
	for s, d := range perm {
		m.Rates[s][d] = 1
	}
	return m, nil
}

// SampleDest draws a destination for src in proportion to its row rates.
func (m *Matrix) SampleDest(src int, r *rng.RNG) int {
	row := m.Rates[src]
	total := m.RowSum(src)
	if total <= 0 {
		panic(fmt.Sprintf("workload: node %d has no demand to sample", src))
	}
	return scanDest(row, r.Float64()*total)
}

// scanDest is the destination rule: the first positive entry of row
// whose running sum exceeds u, or the last positive entry when rounding
// put u at or past the row total. PoissonFlows.Window applies the same
// rule by binary search (searchDest).
func scanDest(row []float64, u float64) int {
	acc := 0.0
	last := -1
	for d, rate := range row {
		if rate <= 0 {
			continue
		}
		acc += rate
		last = d
		if u < acc {
			return d
		}
	}
	return last
}

// PairAffinity returns a saturation matrix for partnered cliques: clique
// 2a exchanges most of its inter-clique demand with clique 2a+1 (and
// vice versa). Each node keeps fraction intra of its unit demand inside
// its clique, sends fraction partner to the partner clique, and spreads
// the remainder uniformly over all other nodes. The number of cliques
// must be even. This is the balanced, pairwise macro-pattern the §5
// "Expressivity" mechanism can encode into the schedule (unlike a hot
// receiver, which port limits forbid).
func PairAffinity(cl *schedule.Cliques, intra, partner float64) (*Matrix, error) {
	if intra < 0 || partner < 0 || intra+partner > 1 {
		return nil, fmt.Errorf("workload: bad affinity split intra=%f partner=%f", intra, partner)
	}
	nc := cl.NumCliques()
	if nc%2 != 0 {
		return nil, fmt.Errorf("workload: PairAffinity needs an even clique count, got %d", nc)
	}
	n := cl.N()
	m := NewMatrix(n)
	for s := 0; s < n; s++ {
		cs := cl.CliqueOf(s)
		ps := cs ^ 1 // partner clique
		own := cl.Members(cs)
		part := cl.Members(ps)
		rest := n - len(own) - len(part)
		for d := 0; d < n; d++ {
			if d == s {
				continue
			}
			switch {
			case cl.CliqueOf(d) == cs:
				m.Rates[s][d] = intra / float64(len(own)-1)
			case cl.CliqueOf(d) == ps:
				m.Rates[s][d] = partner / float64(len(part))
			default:
				m.Rates[s][d] = (1 - intra - partner) / float64(rest)
			}
		}
	}
	return m, nil
}

// FacebookLikeTM returns the locality matrix at the production-trace
// median the paper assumes (56% intra-clique traffic, [23]).
func FacebookLikeTM(cl *schedule.Cliques) (*Matrix, error) {
	return Locality(cl, 0.56)
}

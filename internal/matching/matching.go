// Package matching models the circuit-switched connectivity primitive of
// reconfigurable datacenter networks: permutation matchings between node
// ports, and schedules of matchings cycled synchronously across time slots.
//
// In a wavelength-selective OCS setup (Sirius-style AWGRs), transmitting
// wavelength λi in a slot realizes matching mi: every node s is connected,
// for that slot, to node mi[s]. A Schedule is the periodic sequence of
// matchings all nodes follow; together the slots emulate a static logical
// topology whose edge bandwidths are proportional to how often each circuit
// appears (paper §4, Figures 1 and 2).
package matching

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sortedmap"
)

// Matching is a directed circuit assignment for one time slot: node s
// transmits to Matching[s]. A valid matching is a permutation of [0, N)
// with no fixed points (a node never circuits to itself).
type Matching []int

// CyclicShift returns the matching m[s] = (s + k) mod n, the connectivity
// a k-th wavelength realizes through an n-port AWGR. k must be in [1, n).
func CyclicShift(n, k int) Matching {
	if k <= 0 || k >= n {
		panic(fmt.Sprintf("matching: CyclicShift shift %d out of range for n=%d", k, n))
	}
	m := make(Matching, n)
	for s := range m {
		m[s] = (s + k) % n
	}
	return m
}

// Validate reports whether m is a permutation of [0, len(m)) with no
// self-circuits.
func (m Matching) Validate() error {
	seen := make([]bool, len(m))
	for s, d := range m {
		if d < 0 || d >= len(m) {
			return fmt.Errorf("matching: node %d circuits to out-of-range %d", s, d)
		}
		if d == s {
			return fmt.Errorf("matching: node %d circuits to itself", s)
		}
		if seen[d] {
			return fmt.Errorf("matching: destination %d appears twice", d)
		}
		seen[d] = true
	}
	return nil
}

// Inverse returns the matching's inverse permutation: for each destination
// d, Inverse()[d] is the node transmitting to d.
func (m Matching) Inverse() Matching {
	inv := make(Matching, len(m))
	for s, d := range m {
		inv[d] = s
	}
	return inv
}

// Equal reports whether two matchings are identical.
func (m Matching) Equal(o Matching) bool {
	if len(m) != len(o) {
		return false
	}
	for i := range m {
		if m[i] != o[i] {
			return false
		}
	}
	return true
}

// Schedule is a periodic sequence of matchings over n nodes: in absolute
// slot t, every node s is circuited to Slots[t mod len(Slots)][s].
type Schedule struct {
	N     int
	Slots []Matching
}

// Period returns the number of slots before the schedule repeats.
func (s *Schedule) Period() int { return len(s.Slots) }

// Validate checks that every slot is a valid matching over N nodes.
func (s *Schedule) Validate() error {
	if s.N <= 1 {
		return fmt.Errorf("matching: schedule needs at least 2 nodes, got %d", s.N)
	}
	if len(s.Slots) == 0 {
		return fmt.Errorf("matching: schedule has no slots")
	}
	for t, m := range s.Slots {
		if len(m) != s.N {
			return fmt.Errorf("matching: slot %d has %d entries, want %d", t, len(m), s.N)
		}
		if err := m.Validate(); err != nil {
			return fmt.Errorf("matching: slot %d: %w", t, err)
		}
	}
	return nil
}

// Clone returns a deep copy of the schedule.
func (s *Schedule) Clone() *Schedule {
	c := &Schedule{N: s.N, Slots: make([]Matching, len(s.Slots))}
	for i, m := range s.Slots {
		c.Slots[i] = make(Matching, len(m))
		copy(c.Slots[i], m)
	}
	return c
}

// Relabel returns the schedule of the node-relabeled network: with perm
// a permutation of [0, N), node u of the original becomes node perm[u],
// so slot t's matching m becomes perm ∘ m ∘ perm⁻¹. Relabeling is a pure
// renaming — throughput and latency of any label-oblivious scheme are
// invariant under it, which the oracle harness checks.
func (s *Schedule) Relabel(perm []int) (*Schedule, error) {
	if len(perm) != s.N {
		return nil, fmt.Errorf("matching: relabel permutation over %d nodes, schedule over %d", len(perm), s.N)
	}
	if err := permValid(perm); err != nil {
		return nil, err
	}
	out := &Schedule{N: s.N, Slots: make([]Matching, len(s.Slots))}
	for i, m := range s.Slots {
		rm := make(Matching, len(m))
		for u, v := range m {
			rm[perm[u]] = perm[v]
		}
		out.Slots[i] = rm
	}
	return out, nil
}

// permValid checks that perm is a permutation of [0, len(perm)).
// Fixed points are fine here — this is a node renaming, not a matching.
func permValid(perm []int) error {
	seen := make([]bool, len(perm))
	for u, v := range perm {
		if v < 0 || v >= len(perm) || seen[v] {
			return fmt.Errorf("matching: invalid permutation entry %d->%d", u, v)
		}
		seen[v] = true
	}
	return nil
}

// Equal reports whether two schedules have identical periods and slots.
func (s *Schedule) Equal(o *Schedule) bool {
	if s.N != o.N || len(s.Slots) != len(o.Slots) {
		return false
	}
	for i, m := range s.Slots {
		if !m.Equal(o.Slots[i]) {
			return false
		}
	}
	return true
}

// DestAt returns the node that `node` is circuited to in absolute slot t.
func (s *Schedule) DestAt(node, t int) int {
	return s.Slots[t%len(s.Slots)][node]
}

// LinkFraction returns the fraction l of slots in which node u is circuited
// to node v; the virtual edge u→v then has bandwidth b·l for per-node
// bandwidth b (paper §4, "Topology").
func (s *Schedule) LinkFraction(u, v int) float64 {
	count := 0
	for _, m := range s.Slots {
		if m[u] == v {
			count++
		}
	}
	return float64(count) / float64(len(s.Slots))
}

// Neighbors returns the sorted set of destinations u ever circuits to.
// SORN's schedule updates preserve this superset per node (paper §5).
func (s *Schedule) Neighbors(u int) []int {
	set := map[int]bool{}
	for _, m := range s.Slots {
		set[m[u]] = true
	}
	return sortedmap.Keys(set)
}

// FullCoverage reports whether every ordered pair (u, v), u ≠ v, is
// connected in at least one slot — the uniform-connectivity property
// oblivious designs provide.
func (s *Schedule) FullCoverage() bool {
	for u := 0; u < s.N; u++ {
		if len(s.Neighbors(u)) != s.N-1 {
			return false
		}
	}
	return true
}

// String renders the schedule as the paper's Figure 1: one column per node,
// one row per time slot, cells holding the destination of each node.
func (s *Schedule) String() string {
	var b strings.Builder
	b.WriteString("slot")
	for n := 0; n < s.N; n++ {
		fmt.Fprintf(&b, "\t%s", NodeName(n, s.N))
	}
	b.WriteString("\n")
	for t, m := range s.Slots {
		fmt.Fprintf(&b, "%d", t+1)
		for n := 0; n < s.N; n++ {
			fmt.Fprintf(&b, "\t%s", NodeName(m[n], s.N))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// NodeName labels node n A, B, C... for networks small enough for the
// paper's figures, and numerically otherwise.
func NodeName(n, total int) string {
	if total <= 26 {
		return string(rune('A' + n))
	}
	return fmt.Sprint(n)
}

// RoundRobin returns the flat 1D round-robin schedule of Figure 1: n−1
// slots, slot t realizing the cyclic shift by t+1. Every ordered pair gets
// exactly one slot per period, emulating a uniform clique.
func RoundRobin(n int) *Schedule {
	if n < 2 {
		panic("matching: RoundRobin needs n >= 2")
	}
	s := &Schedule{N: n}
	for k := 1; k < n; k++ {
		s.Slots = append(s.Slots, CyclicShift(n, k))
	}
	return s
}

// AWGRMatchings returns the full set of matchings an n-port wavelength-
// selective OCS offers: one cyclic shift per usable wavelength, as in
// Figure 2(a)/(b). Element i (0-based) is matching m_{i+1}.
func AWGRMatchings(n int) []Matching {
	out := make([]Matching, 0, n-1)
	for k := 1; k < n; k++ {
		out = append(out, CyclicShift(n, k))
	}
	return out
}

// CircuitSet returns the schedule's u→v circuit-existence bitmap,
// indexed u*N+v: true iff u is circuited to v in at least one slot. The
// simulator uses it to detect circuits a reconfiguration removed.
func CircuitSet(s *Schedule) []bool {
	n := s.N
	has := make([]bool, n*n)
	for _, m := range s.Slots {
		for u, v := range m {
			has[u*n+v] = true
		}
	}
	return has
}

// Compiled is a schedule indexed for O(log P) next-circuit queries, the
// hot operation of both the routing model and the slotted simulator.
type Compiled struct {
	sched *Schedule
	// slotsTo[u][v] lists, in increasing order, the slots within one
	// period in which u is circuited to v.
	slotsTo [][][]int32
}

// Compile indexes the schedule. The index is immutable afterwards.
func Compile(s *Schedule) *Compiled {
	c := &Compiled{sched: s}
	c.slotsTo = make([][][]int32, s.N)
	for u := range c.slotsTo {
		c.slotsTo[u] = make([][]int32, s.N)
	}
	for t, m := range s.Slots {
		for u, v := range m {
			c.slotsTo[u][v] = append(c.slotsTo[u][v], int32(t))
		}
	}
	return c
}

// Schedule returns the underlying schedule.
func (c *Compiled) Schedule() *Schedule { return c.sched }

// HasCircuit reports whether u ever circuits to v.
func (c *Compiled) HasCircuit(u, v int) bool { return len(c.slotsTo[u][v]) > 0 }

// NextSlot returns the first absolute slot >= from in which u is circuited
// to v, and whether any such circuit exists in the schedule.
func (c *Compiled) NextSlot(u, v, from int) (int, bool) {
	slots := c.slotsTo[u][v]
	if len(slots) == 0 {
		return 0, false
	}
	p := len(c.sched.Slots)
	base := from / p * p
	phase := int32(from % p)
	// Binary search for the first in-period slot >= phase.
	i := sort.Search(len(slots), func(i int) bool { return slots[i] >= phase })
	if i < len(slots) {
		return base + int(slots[i]), true
	}
	return base + p + int(slots[0]), true
}

// WaitSlots returns the number of slots u must wait, starting at slot
// `from`, until its next circuit to v (0 when the circuit is active now).
func (c *Compiled) WaitSlots(u, v, from int) (int, bool) {
	next, ok := c.NextSlot(u, v, from)
	if !ok {
		return 0, false
	}
	return next - from, true
}

// MaxWait returns the worst-case number of slots u can wait for its
// circuit to v (the intrinsic latency contribution of this hop), i.e. the
// largest gap between consecutive occurrences within the period.
func (c *Compiled) MaxWait(u, v int) (int, bool) {
	slots := c.slotsTo[u][v]
	if len(slots) == 0 {
		return 0, false
	}
	p := len(c.sched.Slots)
	max := 0
	for i := range slots {
		var gap int
		if i == 0 {
			gap = int(slots[0]) + p - int(slots[len(slots)-1])
		} else {
			gap = int(slots[i]) - int(slots[i-1])
		}
		if gap > max {
			max = gap
		}
	}
	// A packet arriving immediately after a circuit closes waits gap−1
	// slots for the next occurrence; we report the conservative gap.
	return max, true
}

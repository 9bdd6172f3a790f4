// Package schedule builds the circuit schedules the paper evaluates: the
// flat 1D round-robin of Sirius-like ORNs, h-dimensional optimal ORN
// schedules, and the semi-oblivious hierarchical (clique) schedules of
// SORN with a configurable oversubscription ratio q (paper §4).
package schedule

import (
	"fmt"
	"slices"
)

// Cliques is a partition of N nodes into groups ("cliques" in the paper's
// terminology: groups with uniform internal connectivity and stable
// aggregate demand across groups).
type Cliques struct {
	n       int
	assign  []int   // assign[node] = clique id
	members [][]int // members[clique] = node list, in id order
	local   []int   // local[node] = index of node within its clique
}

// EqualCliques partitions nodes 0..n-1 into nc contiguous cliques of equal
// size. n must be divisible by nc.
func EqualCliques(n, nc int) (*Cliques, error) {
	if err := checkEqualSplit(n, nc); err != nil {
		return nil, err
	}
	assign := make([]int, n)
	k := n / nc
	for i := range assign {
		assign[i] = i / k
	}
	return NewCliques(assign)
}

// checkEqualSplit rejects an n-node, nc-clique split that is not equal.
func checkEqualSplit(n, nc int) error {
	if n <= 0 || nc <= 0 || n%nc != 0 {
		return fmt.Errorf("schedule: cannot split %d nodes into %d equal cliques", n, nc)
	}
	return nil
}

// NewCliques builds a partition from an explicit assignment of clique ids
// (0-based, contiguous). Used by the control plane when re-clustering.
func NewCliques(assign []int) (*Cliques, error) {
	n := len(assign)
	if n == 0 {
		return nil, fmt.Errorf("schedule: empty clique assignment")
	}
	max := -1
	for node, c := range assign {
		if c < 0 {
			return nil, fmt.Errorf("schedule: node %d has negative clique %d", node, c)
		}
		if c > max {
			max = c
		}
	}
	members := make([][]int, max+1)
	local := make([]int, n)
	for node, c := range assign {
		local[node] = len(members[c])
		members[c] = append(members[c], node)
	}
	for c, m := range members {
		if len(m) == 0 {
			return nil, fmt.Errorf("schedule: clique %d is empty", c)
		}
	}
	cp := make([]int, n)
	copy(cp, assign)
	return &Cliques{n: n, assign: cp, members: members, local: local}, nil
}

// N returns the number of nodes.
func (c *Cliques) N() int { return c.n }

// NumCliques returns the number of cliques.
func (c *Cliques) NumCliques() int { return len(c.members) }

// CliqueOf returns the clique id of a node.
func (c *Cliques) CliqueOf(node int) int { return c.assign[node] }

// LocalIndex returns the node's index within its clique.
func (c *Cliques) LocalIndex(node int) int { return c.local[node] }

// Members returns the nodes of one clique (shared slice; do not mutate).
func (c *Cliques) Members(clique int) []int { return c.members[clique] }

// Size returns the number of nodes in a clique.
func (c *Cliques) Size(clique int) int { return len(c.members[clique]) }

// SameClique reports whether u and v are in the same clique.
func (c *Cliques) SameClique(u, v int) bool { return c.assign[u] == c.assign[v] }

// Equal reports whether two partitions assign every node to the same
// clique id.
func (c *Cliques) Equal(o *Cliques) bool { return slices.Equal(c.assign, o.assign) }

// Uniform reports whether all cliques have the same size, and that size.
func (c *Cliques) Uniform() (int, bool) {
	k := len(c.members[0])
	for _, m := range c.members[1:] {
		if len(m) != k {
			return 0, false
		}
	}
	return k, true
}

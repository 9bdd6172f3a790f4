// Package ocs models the optical circuit switching substrate of the paper's
// §4–§5: a wavelength-selective switch (AWGR-style, as in Sirius) that
// realizes one matching per wavelength, the per-node transmit state that
// implements a circuit schedule (Figure 2c), and the schedule-update
// planning a semi-oblivious control plane performs when it adapts the
// topology.
//
// The key physical property modeled: the circuit schedule lives entirely in
// node state (which wavelength each node transmits in each slot), so
// reconfiguring the logical topology is a synchronized rewrite of node
// state, not a change to the passive optical core.
package ocs

import (
	"fmt"
	"sort"

	"repro/internal/matching"
)

// Switch is a wavelength-selective optical circuit switch with one port
// per node. Wavelength λk (k in [1, Ports)) routes light entering port s
// to port (s+k) mod Ports — the arrayed waveguide grating router (AWGR)
// behavior of Figure 2(a). The switch is passive: it holds no schedule.
type Switch struct {
	ports int
}

// NewAWGR returns an AWGR-style switch with the given port count.
func NewAWGR(ports int) (*Switch, error) {
	if ports < 2 {
		return nil, fmt.Errorf("ocs: switch needs at least 2 ports, got %d", ports)
	}
	return &Switch{ports: ports}, nil
}

// Ports returns the port count.
func (sw *Switch) Ports() int { return sw.ports }

// Matching returns the matching wavelength λk realizes (Figure 2(b)).
func (sw *Switch) Matching(k int) matching.Matching {
	return matching.CyclicShift(sw.ports, k)
}

// WavelengthFor returns the wavelength a node at port src must transmit to
// reach port dst, and whether such a wavelength exists (it does for all
// src ≠ dst on an AWGR).
func (sw *Switch) WavelengthFor(src, dst int) (int, bool) {
	if src == dst || src < 0 || dst < 0 || src >= sw.ports || dst >= sw.ports {
		return 0, false
	}
	return ((dst-src)%sw.ports + sw.ports) % sw.ports, true
}

// NodeState is the per-node hardware state of Figure 2(c): the wavelength
// to transmit in each slot of the schedule period, plus the fixed set of
// neighbors for which the NIC keeps queues. The schedule is realized by
// all nodes cycling this state synchronously.
type NodeState struct {
	Node         int
	TxWavelength []int // per slot in the period
	Neighbors    []int // sorted superset of destinations ever circuited to
}

// CompileNodeStates lowers a schedule onto a switch, producing the transmit
// state every node must hold. It fails if any slot requires a circuit the
// switch cannot realize.
func CompileNodeStates(sw *Switch, s *matching.Schedule) ([]NodeState, error) {
	if s.N != sw.Ports() {
		return nil, fmt.Errorf("ocs: schedule over %d nodes does not fit %d-port switch", s.N, sw.Ports())
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	states := make([]NodeState, s.N)
	for node := 0; node < s.N; node++ {
		tx := make([]int, s.Period())
		for t := range s.Slots {
			dst := s.Slots[t][node]
			w, ok := sw.WavelengthFor(node, dst)
			if !ok {
				return nil, fmt.Errorf("ocs: slot %d: no wavelength connects %d->%d", t, node, dst)
			}
			tx[t] = w
		}
		states[node] = NodeState{
			Node:         node,
			TxWavelength: tx,
			Neighbors:    s.Neighbors(node),
		}
	}
	return states, nil
}

// StateBytes estimates the NIC state footprint of one node: one wavelength
// index per schedule slot (2 bytes each, enough for 64k-port gratings)
// plus one queue descriptor (16 bytes) per neighbor. The paper argues this
// scales well because SORN keeps the neighbor superset fixed and the
// period short (§5).
func (ns *NodeState) StateBytes() int {
	return 2*len(ns.TxWavelength) + 16*len(ns.Neighbors)
}

// Update is a planned transition between two schedules over the same
// nodes, as computed by the control plane before a synchronized rewrite.
type Update struct {
	// SlotChanges[node] counts slots whose transmit wavelength changes.
	SlotChanges []int
	// AddedNeighbors / RemovedNeighbors list, per node, destinations that
	// gain or lose circuits entirely. Removed neighbors require queue
	// drains before the update; SORN rebalancing aims to keep both empty
	// (fixed neighbor superset, varying bandwidth — paper §5).
	AddedNeighbors   [][]int
	RemovedNeighbors [][]int
	OldPeriod        int
	NewPeriod        int
}

// PlanUpdate diffs two schedules. Periods may differ; per-slot comparison
// is over the least common multiple of the two periods, since that is the
// granularity at which node state tables are rewritten.
func PlanUpdate(old, new *matching.Schedule) (*Update, error) {
	if old.N != new.N {
		return nil, fmt.Errorf("ocs: schedule sizes differ: %d vs %d", old.N, new.N)
	}
	if err := old.Validate(); err != nil {
		return nil, fmt.Errorf("ocs: old schedule: %w", err)
	}
	if err := new.Validate(); err != nil {
		return nil, fmt.Errorf("ocs: new schedule: %w", err)
	}
	n := old.N
	u := &Update{
		SlotChanges:      make([]int, n),
		AddedNeighbors:   make([][]int, n),
		RemovedNeighbors: make([][]int, n),
		OldPeriod:        old.Period(),
		NewPeriod:        new.Period(),
	}
	l := lcm(old.Period(), new.Period())
	for t := 0; t < l; t++ {
		om := old.Slots[t%old.Period()]
		nm := new.Slots[t%new.Period()]
		for node := 0; node < n; node++ {
			if om[node] != nm[node] {
				u.SlotChanges[node]++
			}
		}
	}
	for node := 0; node < n; node++ {
		oldNb := old.Neighbors(node)
		newNb := new.Neighbors(node)
		u.AddedNeighbors[node] = setDiff(newNb, oldNb)
		u.RemovedNeighbors[node] = setDiff(oldNb, newNb)
	}
	return u, nil
}

// Unchanged returns the update PlanUpdate(s, s) computes — no slot
// changes, no neighbor changes — without re-validating s or diffing it
// against itself. s must be valid.
func Unchanged(s *matching.Schedule) *Update {
	return &Update{
		SlotChanges:      make([]int, s.N),
		AddedNeighbors:   make([][]int, s.N),
		RemovedNeighbors: make([][]int, s.N),
		OldPeriod:        s.Period(),
		NewPeriod:        s.Period(),
	}
}

// DrainsRequired returns the total number of (node, neighbor) queues that
// must be drained before the update can be applied safely.
func (u *Update) DrainsRequired() int {
	total := 0
	for _, r := range u.RemovedNeighbors {
		total += len(r)
	}
	return total
}

// TotalSlotChanges returns the sum of per-node slot rewrites.
func (u *Update) TotalSlotChanges() int {
	total := 0
	for _, c := range u.SlotChanges {
		total += c
	}
	return total
}

// PreservesNeighborSuperset reports whether the update keeps every node's
// neighbor set intact or growing — the property that lets SORN rebalance
// bandwidth without draining queues (paper §5).
func (u *Update) PreservesNeighborSuperset() bool {
	return u.DrainsRequired() == 0
}

// setDiff returns elements of a not present in b; both must be sorted.
func setDiff(a, b []int) []int {
	var out []int
	for _, v := range a {
		i := sort.SearchInts(b, v)
		if i >= len(b) || b[i] != v {
			out = append(out, v)
		}
	}
	return out
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcm(a, b int) int { return a / gcd(a, b) * b }

// Package faultplan turns failure scenarios into data: a Plan is a
// slot-indexed, deterministic schedule of link/node failures and repairs
// that a Driver replays against any simulator implementing Target,
// strictly between Steps (netsim's failure-injection contract).
//
// Plans come from three sources, freely combined with Merge:
//
//   - scripted events (New), for precisely reproducible scenarios such
//     as "node 7 dies at slot 500 and returns at slot 1500";
//   - seeded random churn (Churn), which materializes the whole outage
//     sequence ahead of time from a dedicated rng stream — the traffic
//     workload's streams are never touched, so adding churn to an
//     experiment perturbs nothing but the faults themselves;
//   - the CLI spec grammar (ParseSpec), which composes both.
//
// Because a Plan is immutable data ordered by (slot, kind, node ids),
// replaying it is deterministic: the Driver applies the same events at
// the same slots in the same order on every run, and concurrent
// simulators can replay one Plan side by side, which is what extends
// netsim's determinism guarantee (and a sweep's concurrency 1-vs-k
// bit-identity) to runs with active fault plans.
package faultplan

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/rng"
)

// Kind is the event type. Repairs order before failures so that, within
// one slot, an entity scheduled for back-to-back outages is repaired
// before it fails again (the lifecycle never sees fail-while-failed).
type Kind uint8

const (
	RepairLink Kind = iota
	RepairNode
	FailLink
	FailNode
)

// String names the kind for errors and traces.
func (k Kind) String() string {
	switch k {
	case RepairLink:
		return "repair_link"
	case RepairNode:
		return "repair_node"
	case FailLink:
		return "fail_link"
	case FailNode:
		return "fail_node"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one scheduled fault action. Link events use U→V (directed);
// node events use U and leave V at -1.
type Event struct {
	Slot int64
	Kind Kind
	U, V int
}

// less is the canonical plan order: slot, then kind (repairs first),
// then node ids — a total order, so sorting is deterministic.
func (e Event) less(o Event) bool {
	if e.Slot != o.Slot {
		return e.Slot < o.Slot
	}
	if e.Kind != o.Kind {
		return e.Kind < o.Kind
	}
	if e.U != o.U {
		return e.U < o.U
	}
	return e.V < o.V
}

func (e Event) validate(n int) error {
	if e.Slot < 0 {
		return fmt.Errorf("faultplan: %s at negative slot %d", e.Kind, e.Slot)
	}
	if e.U < 0 || e.U >= n {
		return fmt.Errorf("faultplan: %s node %d outside [0,%d)", e.Kind, e.U, n)
	}
	switch e.Kind {
	case FailLink, RepairLink:
		if e.V < 0 || e.V >= n {
			return fmt.Errorf("faultplan: %s node %d outside [0,%d)", e.Kind, e.V, n)
		}
		if e.U == e.V {
			return fmt.Errorf("faultplan: %s self-link %d:%d", e.Kind, e.U, e.V)
		}
	case FailNode, RepairNode:
		if e.V != -1 {
			return fmt.Errorf("faultplan: %s carries link endpoint V=%d", e.Kind, e.V)
		}
	default:
		return fmt.Errorf("faultplan: unknown kind %d", e.Kind)
	}
	return nil
}

// Plan is an immutable, canonically ordered fault schedule over n nodes.
type Plan struct {
	n      int
	events []Event
}

// New builds a plan over n nodes from events in any order; they are
// validated against n and sorted into canonical order.
func New(n int, events []Event) (*Plan, error) {
	if n < 2 {
		return nil, fmt.Errorf("faultplan: need at least 2 nodes, got %d", n)
	}
	evs := make([]Event, len(events))
	copy(evs, events)
	for _, e := range evs {
		if err := e.validate(n); err != nil {
			return nil, err
		}
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].less(evs[j]) })
	return &Plan{n: n, events: evs}, nil
}

// N returns the node count the plan was validated against.
func (p *Plan) N() int { return p.n }

// Len returns the number of scheduled events.
func (p *Plan) Len() int { return len(p.events) }

// Events returns a copy of the schedule in canonical order.
func (p *Plan) Events() []Event {
	out := make([]Event, len(p.events))
	copy(out, p.events)
	return out
}

// Horizon returns the last scheduled slot (0 for an empty plan). Runs
// that should observe the full scenario — including the final repairs —
// must step past it.
func (p *Plan) Horizon() int64 {
	if len(p.events) == 0 {
		return 0
	}
	return p.events[len(p.events)-1].Slot
}

// Merge combines two plans over the same node count into one.
func Merge(a, b *Plan) (*Plan, error) {
	if a.n != b.n {
		return nil, fmt.Errorf("faultplan: merging plans over %d and %d nodes", a.n, b.n)
	}
	return New(a.n, append(a.Events(), b.events...))
}

// Outage is a convenience constructor: entity down at start, repaired at
// end (exclusive; end <= start means the failure is permanent). Link
// outages take v >= 0, node outages v = -1.
func Outage(u, v int, start, end int64) []Event {
	var fail, repair Kind
	if v >= 0 {
		fail, repair = FailLink, RepairLink
	} else {
		fail, repair = FailNode, RepairNode
	}
	evs := []Event{{Slot: start, Kind: fail, U: u, V: v}}
	if end > start {
		evs = append(evs, Event{Slot: end, Kind: repair, U: u, V: v})
	}
	return evs
}

// ChurnConfig parameterizes random background churn.
type ChurnConfig struct {
	N          int     // node count
	Start, End int64   // churn is drawn for slots in [Start, End)
	LinkRate   float64 // per-slot probability a new link outage starts
	NodeRate   float64 // per-slot probability a new node outage starts
	Down       int64   // outage duration in slots
	Seed       uint64  // dedicated stream seed; decorrelated internally
}

// maxChurnSlots caps a churn window's length. Churn materializes its
// whole window ahead of time, one draw per slot, so an unbounded window
// from a typo'd spec would hang the caller. 2^22 slots is over 40 times
// the longest churn window the experiments and benchmark use.
const maxChurnSlots = 1 << 22

// churnSeedXor decorrelates the churn stream from every other consumer
// of the same user seed (netsim's traffic, latency sampling, per-node
// streams all xor their own constants), so turning churn on or off — or
// changing its rates — never perturbs the workload.
const churnSeedXor = 0xfa17_190a_c4c4_c4c4

// Churn materializes a random fail/repair schedule ahead of time. The
// whole sequence is a pure function of the config: per slot, one
// Bernoulli draw per enabled rate decides whether an outage starts, and
// a uniform draw picks the victim; a victim already down is skipped
// (draw consumed, no event), so outages never overlap per entity and the
// fail→repair→fail lifecycle stays well-formed by construction.
func Churn(cfg ChurnConfig) (*Plan, error) {
	if cfg.N < 2 {
		return nil, fmt.Errorf("faultplan: churn needs at least 2 nodes, got %d", cfg.N)
	}
	if cfg.Start < 0 || cfg.End < cfg.Start {
		return nil, fmt.Errorf("faultplan: churn window [%d,%d) invalid", cfg.Start, cfg.End)
	}
	if cfg.LinkRate < 0 || cfg.LinkRate > 1 || cfg.NodeRate < 0 || cfg.NodeRate > 1 {
		return nil, fmt.Errorf("faultplan: churn rates (%g links, %g nodes) outside [0,1]",
			cfg.LinkRate, cfg.NodeRate)
	}
	if cfg.End-cfg.Start > maxChurnSlots {
		return nil, fmt.Errorf("faultplan: churn window [%d,%d) longer than %d slots",
			cfg.Start, cfg.End, maxChurnSlots)
	}
	if (cfg.LinkRate > 0 || cfg.NodeRate > 0) && cfg.Down <= 0 {
		return nil, fmt.Errorf("faultplan: churn outage duration %d must be positive", cfg.Down)
	}
	if cfg.Down > math.MaxInt64-cfg.End {
		return nil, fmt.Errorf("faultplan: churn outage duration %d overflows past slot %d", cfg.Down, cfg.End)
	}
	r := rng.New(cfg.Seed ^ churnSeedXor)
	n := cfg.N
	linkUp := make([]int64, n*n) // slot at which the link is live again
	nodeUp := make([]int64, n)
	var events []Event
	for slot := cfg.Start; slot < cfg.End; slot++ {
		if cfg.LinkRate > 0 && r.Float64() < cfg.LinkRate {
			u := r.Intn(n)
			v := r.Intn(n - 1)
			if v >= u {
				v++
			}
			if linkUp[u*n+v] <= slot {
				linkUp[u*n+v] = slot + cfg.Down
				events = append(events, Outage(u, v, slot, slot+cfg.Down)...)
			}
		}
		if cfg.NodeRate > 0 && r.Float64() < cfg.NodeRate {
			u := r.Intn(n)
			if nodeUp[u] <= slot {
				nodeUp[u] = slot + cfg.Down
				events = append(events, Outage(u, -1, slot, slot+cfg.Down)...)
			}
		}
	}
	return New(n, events)
}

// Target is what a Driver drives. netsim.Sim satisfies it; any simulator
// honoring the between-Steps injection contract can.
type Target interface {
	FailLink(u, v int)
	RepairLink(u, v int)
	FailNode(u int)
	RepairNode(u int)
}

// Driver replays a plan against a Target. Drivers are cheap cursors over
// the immutable plan — build one per run (e.g. one per baseline in a
// comparison experiment) rather than sharing.
type Driver struct {
	plan *Plan
	next int
}

// NewDriver returns a fresh cursor at the start of the plan.
func NewDriver(p *Plan) *Driver { return &Driver{plan: p} }

// Advance applies every not-yet-applied event scheduled at or before
// slot, in canonical order, and reports how many it applied. Call it
// between Steps, before injecting the slot's traffic, so a slot's
// failures take effect on that slot's transmissions.
func (d *Driver) Advance(t Target, slot int64) int {
	applied := 0
	for d.next < len(d.plan.events) && d.plan.events[d.next].Slot <= slot {
		e := d.plan.events[d.next]
		switch e.Kind {
		case FailLink:
			t.FailLink(e.U, e.V)
		case RepairLink:
			t.RepairLink(e.U, e.V)
		case FailNode:
			t.FailNode(e.U)
		case RepairNode:
			t.RepairNode(e.U)
		}
		d.next++
		applied++
	}
	return applied
}

// Done reports whether every event has been applied.
func (d *Driver) Done() bool { return d.next == len(d.plan.events) }

// NextSlot returns the slot of the next unapplied event, so a driver
// loop over a quiescent simulator can fast-forward to it instead of
// polling Advance every slot. ok is false once the plan is exhausted.
func (d *Driver) NextSlot() (slot int64, ok bool) {
	if d.next >= len(d.plan.events) {
		return 0, false
	}
	return d.plan.events[d.next].Slot, true
}

// ParseSpec parses the CLI fault-plan grammar into a plan over n nodes.
// Entries are ';'-separated:
//
//	node<U>@<start>[-<end>]          node outage (permanent without end)
//	link<U>:<V>@<start>[-<end>]      directed link outage
//	churn@<start>-<end>[,links=<p>][,nodes=<p>][,down=<slots>]
//
// e.g. "node7@500-1500;link0:9@800-1200;churn@0-5000,links=0.001,down=300".
// Churn draws from a dedicated stream derived from seed, so the same
// seed+spec always yields the same plan.
func ParseSpec(spec string, n int, seed uint64) (*Plan, error) {
	plan, err := New(n, nil)
	if err != nil {
		return nil, err
	}
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		part, err := parseEntry(entry, n, seed)
		if err != nil {
			return nil, err
		}
		plan, err = Merge(plan, part)
		if err != nil {
			return nil, err
		}
	}
	return plan, nil
}

func parseEntry(entry string, n int, seed uint64) (*Plan, error) {
	head, rest, ok := strings.Cut(entry, "@")
	if !ok {
		return nil, fmt.Errorf("faultplan: entry %q missing '@'", entry)
	}
	switch {
	case head == "churn":
		return parseChurn(entry, rest, n, seed)
	case strings.HasPrefix(head, "node"):
		u, err := strconv.Atoi(head[len("node"):])
		if err != nil {
			return nil, fmt.Errorf("faultplan: bad node id in %q: %v", entry, err)
		}
		start, end, err := parseWindow(rest, false)
		if err != nil {
			return nil, fmt.Errorf("faultplan: %q: %v", entry, err)
		}
		return New(n, Outage(u, -1, start, end))
	case strings.HasPrefix(head, "link"):
		us, vs, ok := strings.Cut(head[len("link"):], ":")
		if !ok {
			return nil, fmt.Errorf("faultplan: link entry %q needs u:v", entry)
		}
		u, err := strconv.Atoi(us)
		if err != nil {
			return nil, fmt.Errorf("faultplan: bad link source in %q: %v", entry, err)
		}
		v, err := strconv.Atoi(vs)
		if err != nil {
			return nil, fmt.Errorf("faultplan: bad link destination in %q: %v", entry, err)
		}
		start, end, err := parseWindow(rest, false)
		if err != nil {
			return nil, fmt.Errorf("faultplan: %q: %v", entry, err)
		}
		return New(n, Outage(u, v, start, end))
	default:
		return nil, fmt.Errorf("faultplan: unknown entry %q (want node…, link…, or churn…)", entry)
	}
}

func parseChurn(entry, rest string, n int, seed uint64) (*Plan, error) {
	fields := strings.Split(rest, ",")
	start, end, err := parseWindow(fields[0], true)
	if err != nil {
		return nil, fmt.Errorf("faultplan: %q: %v", entry, err)
	}
	cfg := ChurnConfig{N: n, Start: start, End: end, Down: 300, Seed: seed}
	for _, f := range fields[1:] {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return nil, fmt.Errorf("faultplan: churn option %q in %q needs key=value", f, entry)
		}
		switch k {
		case "links":
			cfg.LinkRate, err = strconv.ParseFloat(v, 64)
		case "nodes":
			cfg.NodeRate, err = strconv.ParseFloat(v, 64)
		case "down":
			cfg.Down, err = strconv.ParseInt(v, 10, 64)
		default:
			return nil, fmt.Errorf("faultplan: unknown churn option %q in %q", k, entry)
		}
		if err != nil {
			return nil, fmt.Errorf("faultplan: churn option %q in %q: %v", f, entry, err)
		}
	}
	return Churn(cfg)
}

// parseWindow parses "<start>" or "<start>-<end>"; needEnd requires the
// two-sided form.
func parseWindow(s string, needEnd bool) (start, end int64, err error) {
	ss, es, hasEnd := strings.Cut(s, "-")
	start, err = strconv.ParseInt(ss, 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("bad window start %q: %v", ss, err)
	}
	if !hasEnd {
		if needEnd {
			return 0, 0, fmt.Errorf("window %q needs start-end", s)
		}
		return start, start, nil
	}
	end, err = strconv.ParseInt(es, 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("bad window end %q: %v", es, err)
	}
	if end < start {
		return 0, 0, fmt.Errorf("window %q ends before it starts", s)
	}
	return start, end, nil
}

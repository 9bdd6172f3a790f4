package faultplan

import (
	"math"
	"reflect"
	"testing"
)

// fakeTarget records applied events so driver order is checkable.
type fakeTarget struct {
	calls []Event
}

func (f *fakeTarget) FailLink(u, v int) { f.calls = append(f.calls, Event{Kind: FailLink, U: u, V: v}) }
func (f *fakeTarget) RepairLink(u, v int) {
	f.calls = append(f.calls, Event{Kind: RepairLink, U: u, V: v})
}
func (f *fakeTarget) FailNode(u int) { f.calls = append(f.calls, Event{Kind: FailNode, U: u, V: -1}) }
func (f *fakeTarget) RepairNode(u int) {
	f.calls = append(f.calls, Event{Kind: RepairNode, U: u, V: -1})
}

func TestNewSortsCanonically(t *testing.T) {
	// Same slot: repairs must order before failures, then by node ids.
	p, err := New(8, []Event{
		{Slot: 10, Kind: FailNode, U: 3, V: -1},
		{Slot: 10, Kind: RepairNode, U: 3, V: -1},
		{Slot: 5, Kind: FailLink, U: 7, V: 0},
		{Slot: 10, Kind: FailLink, U: 1, V: 2},
		{Slot: 10, Kind: FailLink, U: 1, V: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{Slot: 5, Kind: FailLink, U: 7, V: 0},
		{Slot: 10, Kind: RepairNode, U: 3, V: -1},
		{Slot: 10, Kind: FailLink, U: 1, V: 0},
		{Slot: 10, Kind: FailLink, U: 1, V: 2},
		{Slot: 10, Kind: FailNode, U: 3, V: -1},
	}
	if got := p.Events(); !reflect.DeepEqual(got, want) {
		t.Fatalf("canonical order:\n got %v\nwant %v", got, want)
	}
	if p.Horizon() != 10 {
		t.Fatalf("horizon = %d, want 10", p.Horizon())
	}
}

func TestNewRejectsMalformedEvents(t *testing.T) {
	cases := []Event{
		{Slot: -1, Kind: FailNode, U: 0, V: -1},  // negative slot
		{Slot: 0, Kind: FailNode, U: 8, V: -1},   // node out of range
		{Slot: 0, Kind: FailLink, U: 2, V: 2},    // self link
		{Slot: 0, Kind: FailLink, U: 0, V: 9},    // link endpoint out of range
		{Slot: 0, Kind: FailNode, U: 0, V: 3},    // node event with link payload
		{Slot: 0, Kind: Kind(99), U: 0, V: -1},   // unknown kind
		{Slot: 0, Kind: RepairLink, U: -1, V: 0}, // negative node
	}
	for _, e := range cases {
		if _, err := New(8, []Event{e}); err == nil {
			t.Errorf("New accepted malformed event %+v", e)
		}
	}
	if _, err := New(1, nil); err == nil {
		t.Error("New accepted a 1-node plan")
	}
}

func TestDriverAppliesInOrder(t *testing.T) {
	p, err := New(8, Outage(3, -1, 5, 20))
	if err != nil {
		t.Fatal(err)
	}
	ch, err := New(8, Outage(0, 1, 10, 15))
	if err != nil {
		t.Fatal(err)
	}
	p, err = Merge(p, ch)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDriver(p)
	ft := &fakeTarget{}
	if got := d.Advance(ft, 4); got != 0 || len(ft.calls) != 0 {
		t.Fatalf("advance(4) applied %d events, want 0", got)
	}
	if got := d.Advance(ft, 12); got != 2 {
		t.Fatalf("advance(12) applied %d events, want 2 (node fail + link fail)", got)
	}
	if got := d.Advance(ft, 100); got != 2 || !d.Done() {
		t.Fatalf("advance(100) applied %d events (done=%v), want 2 and done", got, d.Done())
	}
	want := []Event{
		{Kind: FailNode, U: 3, V: -1},
		{Kind: FailLink, U: 0, V: 1},
		{Kind: RepairLink, U: 0, V: 1},
		{Kind: RepairNode, U: 3, V: -1},
	}
	if !reflect.DeepEqual(ft.calls, want) {
		t.Fatalf("applied order:\n got %v\nwant %v", ft.calls, want)
	}
}

func TestChurnDeterministicAndWellFormed(t *testing.T) {
	cfg := ChurnConfig{N: 16, Start: 0, End: 5000, LinkRate: 0.05, NodeRate: 0.02, Down: 97, Seed: 42}
	a, err := Churn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Churn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Events(), b.Events()) {
		t.Fatal("same config produced different churn plans")
	}
	if a.Len() == 0 {
		t.Fatal("churn at these rates over 5000 slots produced no events")
	}
	cfg.Seed = 43
	c, err := Churn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Events(), c.Events()) {
		t.Fatal("different seeds produced identical churn plans")
	}

	checkLifecycle(t, a)
}

// checkLifecycle asserts a well-formed lifecycle: per entity, strictly
// alternating fail/repair starting with fail, and every fail at a slot
// where the entity is up — what Churn guarantees by construction.
func checkLifecycle(t *testing.T, p *Plan) {
	t.Helper()
	n := p.N()
	nodeDown := make([]bool, n)
	linkDown := make([]bool, n*n)
	for _, e := range p.Events() {
		down := &nodeDown[e.U]
		if e.Kind == FailLink || e.Kind == RepairLink {
			down = &linkDown[e.U*n+e.V]
		}
		failing := e.Kind == FailNode || e.Kind == FailLink
		if failing == *down {
			t.Fatalf("lifecycle violation at %+v (down=%v)", e, *down)
		}
		*down = failing
	}
}

func TestChurnRejectsBadConfig(t *testing.T) {
	bad := []ChurnConfig{
		{N: 1, End: 10, LinkRate: 0.1, Down: 5},
		{N: 8, Start: 10, End: 5, LinkRate: 0.1, Down: 5},
		{N: 8, End: 10, LinkRate: 1.5, Down: 5},
		{N: 8, End: 10, NodeRate: -0.1, Down: 5},
		{N: 8, End: 10, LinkRate: 0.1, Down: 0},
		{N: 8, End: maxChurnSlots + 1, LinkRate: 0.1, Down: 5},                       // window too long to materialize
		{N: 8, Start: math.MaxInt64 - 10, End: math.MaxInt64, NodeRate: 1, Down: 20}, // repair slot overflows
	}
	for _, cfg := range bad {
		if _, err := Churn(cfg); err == nil {
			t.Errorf("Churn accepted bad config %+v", cfg)
		}
	}
}

func TestParseSpec(t *testing.T) {
	p, err := ParseSpec("node7@500-1500; link0:9@800-1200 ;node2@50", 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{Slot: 50, Kind: FailNode, U: 2, V: -1},
		{Slot: 500, Kind: FailNode, U: 7, V: -1},
		{Slot: 800, Kind: FailLink, U: 0, V: 9},
		{Slot: 1200, Kind: RepairLink, U: 0, V: 9},
		{Slot: 1500, Kind: RepairNode, U: 7, V: -1},
	}
	if got := p.Events(); !reflect.DeepEqual(got, want) {
		t.Fatalf("parsed plan:\n got %v\nwant %v", got, want)
	}

	// Churn entries are seed-stable and compose with scripted entries.
	spec := "node3@100-200;churn@0-2000,links=0.02,nodes=0.01,down=50"
	a, err := ParseSpec(spec, 16, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseSpec(spec, 16, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Events(), b.Events()) {
		t.Fatal("same spec+seed parsed to different plans")
	}
	if a.Len() <= 2 {
		t.Fatalf("expected scripted outage plus churn events, got %d events", a.Len())
	}

	// Empty spec is an empty plan, not an error.
	e, err := ParseSpec("", 16, 0)
	if err != nil || e.Len() != 0 {
		t.Fatalf("empty spec: plan len %d, err %v", e.Len(), err)
	}
}

// badSpecs are fault-plan specs ParseSpec must reject over 16 nodes.
var badSpecs = []string{
	"node7",                       // missing @
	"nodeX@5",                     // bad id
	"link3@5",                     // missing :v
	"link3:x@5",                   // bad endpoint
	"node7@10-5",                  // end before start
	"node99@5",                    // out of range
	"churn@100",                   // churn needs start-end
	"churn@0-10,bogus=1",          // unknown option
	"churn@0-10,links=xyz",        // bad value
	"churn@0-10,links=0.1,down=0", // zero duration
	"widget@5",                    // unknown entry
}

func TestParseSpecErrors(t *testing.T) {
	for _, spec := range badSpecs {
		if _, err := ParseSpec(spec, 16, 0); err == nil {
			t.Errorf("ParseSpec accepted %q", spec)
		}
	}
}

func TestDriverNextSlot(t *testing.T) {
	p, err := New(8, Outage(3, -1, 5, 20))
	if err != nil {
		t.Fatal(err)
	}
	d := NewDriver(p)
	if s, ok := d.NextSlot(); !ok || s != 5 {
		t.Fatalf("fresh driver NextSlot = %d, %v; want 5, true", s, ok)
	}
	ft := &fakeTarget{}
	d.Advance(ft, 5)
	if s, ok := d.NextSlot(); !ok || s != 20 {
		t.Fatalf("after fail applied NextSlot = %d, %v; want 20, true", s, ok)
	}
	d.Advance(ft, 20)
	if _, ok := d.NextSlot(); ok {
		t.Fatal("exhausted driver still reports a next slot")
	}
	if !d.Done() {
		t.Fatal("driver not done after all events applied")
	}
}

package obs

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"
)

func TestRegistryGetOrCreateAndOrder(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("delivered")
	g := r.Gauge("backlog")
	rt := r.Rate("thpt", 4)
	if r.Counter("delivered") != c || r.Gauge("backlog") != g || r.Rate("thpt", 99) != rt {
		t.Fatal("get-or-create returned a different metric on second lookup")
	}
	if len(rt.buf) != 4 {
		t.Fatalf("existing rate window resized to %d", len(rt.buf))
	}
	names := r.Names()
	want := []string{"delivered", "backlog", "thpt"}
	if len(names) != len(want) {
		t.Fatalf("names %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("registration order %v, want %v", names, want)
		}
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on kind mismatch")
		}
	}()
	r := NewRegistry()
	r.Counter("m")
	r.Gauge("m")
}

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Add(3)
	c.Inc()
	if c.Total() != 4 {
		t.Fatalf("counter %d", c.Total())
	}
	g := r.Gauge("g")
	g.Set(2.5)
	if g.Value() != 2.5 {
		t.Fatalf("gauge %f", g.Value())
	}
}

func TestRateWindowedMean(t *testing.T) {
	r := NewRegistry().Rate("r", 3)
	if r.Value() != 0 {
		t.Fatalf("empty rate %f", r.Value())
	}
	r.Observe(1)
	r.Observe(2)
	if r.Value() != 1.5 {
		t.Fatalf("partial window mean %f", r.Value())
	}
	r.Observe(3)
	r.Observe(10) // evicts the 1
	if r.Value() != 5 {
		t.Fatalf("full window mean %f, want 5", r.Value())
	}
	r.reset()
	if r.Value() != 0 {
		t.Fatalf("reset rate %f", r.Value())
	}
}

func TestTraceRingWrapAndDropped(t *testing.T) {
	o := New(Options{TraceCap: 4})
	for i := 0; i < 6; i++ {
		o.Emit(Event{Slot: int64(i), Type: EvFlowStart})
	}
	evs := o.Events()
	if len(evs) != 4 {
		t.Fatalf("%d events retained", len(evs))
	}
	for i, e := range evs {
		if e.Slot != int64(i+2) {
			t.Fatalf("event %d has slot %d, want %d (oldest-first after wrap)", i, e.Slot, i+2)
		}
	}
	if o.TraceDropped() != 2 {
		t.Fatalf("dropped %d, want 2", o.TraceDropped())
	}
}

// TestTraceControlEventsSurviveFlowFlood pins the two-tier contract: a
// saturated run's flow chatter wraps its own ring without evicting the
// rare control events, and Events() still interleaves the survivors in
// emission order.
func TestTraceControlEventsSurviveFlowFlood(t *testing.T) {
	o := New(Options{TraceCap: 8})
	o.Emit(Event{Slot: 0, Type: EvRunBegin, Note: "before"})
	for i := 0; i < 100; i++ {
		o.Emit(Event{Slot: int64(i), Type: EvFlowStart, Flow: int64(i)})
	}
	o.Emit(Event{Slot: 50, Type: EvReplan, Epoch: 1})
	for i := 100; i < 200; i++ {
		o.Emit(Event{Slot: int64(i), Type: EvFlowFinish, Flow: int64(i)})
	}
	o.Emit(Event{Slot: 199, Type: EvReconfigCommit, Cells: 3})
	evs := o.Events()
	if len(evs) != 8+3 {
		t.Fatalf("%d events retained, want 8 flow + 3 control", len(evs))
	}
	// Control events survive in order despite 200 flow events against an
	// 8-entry tier.
	var ctrl []string
	for _, e := range evs {
		if e.Type != EvFlowStart && e.Type != EvFlowFinish {
			ctrl = append(ctrl, e.Type)
		}
	}
	if len(ctrl) != 3 || ctrl[0] != EvRunBegin || ctrl[1] != EvReplan || ctrl[2] != EvReconfigCommit {
		t.Fatalf("control events %v", ctrl)
	}
	// Emission order: the replan (slot 50) precedes every retained flow
	// event (the newest 8 finishes, slots 192..199), and the commit is
	// last.
	if evs[0].Type != EvRunBegin || evs[1].Type != EvReplan || evs[len(evs)-1].Type != EvReconfigCommit {
		t.Fatalf("merge order wrong: first=%s second=%s last=%s", evs[0].Type, evs[1].Type, evs[len(evs)-1].Type)
	}
	if o.TraceDropped() != 192 {
		t.Fatalf("dropped %d, want 192", o.TraceDropped())
	}
}

func TestTraceJSONLRoundTrip(t *testing.T) {
	o := New(Options{})
	want := []Event{
		{Slot: 5, Type: EvFlowStart, Flow: 1, Src: 0, Dst: 3, Cells: 16},
		{Slot: 9, Type: EvReplan, Epoch: 2, Src: -1, Dst: -1, Q: 4.5, X: 0.56, Nc: 8, Val: 0.41},
		{Slot: 12, Type: EvReconfigCommit, Src: -1, Dst: -1, Cells: 7, Note: "sorn"},
	}
	for _, e := range want {
		o.Emit(e)
	}
	var buf bytes.Buffer
	if err := o.WriteTraceJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(want) {
		t.Fatalf("%d lines", len(lines))
	}
	for i, line := range lines {
		var got Event
		if err := json.Unmarshal([]byte(line), &got); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if got != want[i] {
			t.Fatalf("line %d: %+v != %+v", i, got, want[i])
		}
	}
}

func TestTraceCSVParses(t *testing.T) {
	o := New(Options{})
	o.Emit(Event{Slot: 1, Type: EvFailNode, Src: 9, Dst: -1, Cells: 40})
	o.Emit(Event{Slot: 2, Type: EvPhaseBegin, Src: -1, Dst: -1, Note: "shifted, stale"})
	var buf bytes.Buffer
	if err := o.WriteTraceCSV(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 { // header + 2 events
		t.Fatalf("%d records", len(recs))
	}
	if recs[0][0] != "slot" || recs[1][2] != EvFailNode || recs[2][11] != "shifted, stale" {
		t.Fatalf("unexpected rows %v", recs)
	}
}

func TestSeriesSnapshotsAndCSV(t *testing.T) {
	o := New(Options{MetricsEvery: 2})
	c := o.Counter("delivered")
	g := o.Gauge("backlog")
	for slot := int64(0); slot < 5; slot++ {
		c.Add(10)
		g.Set(float64(slot))
		o.EndSlot(slot)
	}
	o.StartRun("phase2")
	c.Add(5)
	o.EndSlot(6)

	rows := o.SeriesRows()
	if len(rows) != 4 { // slots 0, 2, 4, 6
		t.Fatalf("%d rows", len(rows))
	}
	if rows[1][1] != "2" || rows[1][2] != "30" {
		t.Fatalf("slot-2 row %v", rows[1])
	}
	if rows[3][0] != "phase2" || rows[3][2] != "55" {
		t.Fatalf("labeled row %v", rows[3])
	}
	var buf bytes.Buffer
	if err := o.WriteMetricsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 || recs[0][2] != "delivered" || recs[0][3] != "backlog" {
		t.Fatalf("CSV %v", recs)
	}
}

func TestSeriesRingBounded(t *testing.T) {
	o := New(Options{MetricsEvery: 1, SeriesCap: 3})
	o.Counter("c")
	for slot := int64(0); slot < 10; slot++ {
		o.EndSlot(slot)
	}
	rows := o.SeriesRows()
	if len(rows) != 3 || rows[0][1] != "7" || rows[2][1] != "9" {
		t.Fatalf("rows %v", rows)
	}
}

func TestPhaseTiming(t *testing.T) {
	o := New(Options{})
	start := o.Clock()
	if start == 0 {
		t.Fatal("enabled Clock returned 0")
	}
	o.AddPhase(PhaseTransmit, start)
	o.AddPhase(PhaseTransmit, start)
	o.AddPhase(PhaseMerge, o.Clock())
	sts := o.PhaseStats()
	if len(sts) != 2 {
		t.Fatalf("%d phases reported", len(sts))
	}
	tx := sts[0]
	if tx.Phase != "transmit" || tx.Calls != 2 || tx.TotalNS < 0 {
		t.Fatalf("transmit stat %+v", tx)
	}
	if len(tx.ShardNS) != 1 || tx.ShardNS[0] != tx.TotalNS {
		t.Fatalf("deprecated ShardNS %v, want [TotalNS]", tx.ShardNS)
	}
	var buf bytes.Buffer
	if err := o.WritePhaseReport(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "transmit") {
		t.Fatalf("report %q", buf.String())
	}
}

// TestNilObserverInert drives the whole API through a nil Observer: the
// disabled layer must be safe everywhere netsim calls it.
func TestNilObserverInert(t *testing.T) {
	var o *Observer
	if o.Enabled() {
		t.Fatal("nil observer enabled")
	}
	o.Counter("c").Add(1)
	o.Counter("c").Inc()
	o.Gauge("g").Set(1)
	o.Rate("r").Observe(1)
	if o.Counter("c").Total() != 0 || o.Gauge("g").Value() != 0 || o.Rate("r").Value() != 0 {
		t.Fatal("nil metrics accumulated")
	}
	o.Emit(Event{Type: EvFlowStart})
	o.StartRun("x")
	o.EndSlot(0)
	o.AddPhase(PhaseLand, o.Clock())
	if o.Clock() != 0 || o.Events() != nil || o.TraceDropped() != 0 {
		t.Fatal("nil observer recorded something")
	}
	if o.PhaseStats() != nil || o.SeriesHeader() != nil || o.SeriesRows() != nil {
		t.Fatal("nil observer reported something")
	}
	var buf bytes.Buffer
	if err := o.WriteMetricsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if err := o.WriteTraceJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if err := o.WriteTraceCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if err := o.WritePhaseReport(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("nil observer wrote %q", buf.String())
	}
	var reg *Registry
	if reg.Counter("x") != nil || reg.Gauge("x") != nil || reg.Rate("x", 2) != nil || reg.Names() != nil {
		t.Fatal("nil registry created metrics")
	}
}

func TestRateObserveZeros(t *testing.T) {
	// ObserveZeros(k) must be indistinguishable from k Observe(0) calls
	// in every regime: partial fill, wrap within the window, and a bulk
	// skip far larger than the window (the clear fast path) — including
	// the ring index, so later observations land in the same cells.
	for _, k := range []int64{0, -3, 1, 2, 3, 4, 7, 100} {
		bulk := NewRegistry().Rate("b", 4)
		loop := NewRegistry().Rate("l", 4)
		for _, r := range []*Rate{bulk, loop} {
			r.Observe(8)
			r.Observe(4)
		}
		bulk.ObserveZeros(k)
		for i := int64(0); i < k; i++ {
			loop.Observe(0)
		}
		bulk.Observe(6)
		loop.Observe(6)
		if bulk.Value() != loop.Value() || bulk.idx != loop.idx || bulk.n != loop.n {
			t.Fatalf("k=%d: bulk (val %f idx %d n %d) != loop (val %f idx %d n %d)",
				k, bulk.Value(), bulk.idx, bulk.n, loop.Value(), loop.idx, loop.n)
		}
	}
	var nilRate *Rate
	nilRate.ObserveZeros(5) // must not panic
}

func TestNextSnapshot(t *testing.T) {
	// Power-of-two and non-power-of-two cadences: NextSnapshot(from) is
	// the first slot >= from where SnapshotDue holds.
	for _, every := range []int64{1, 5, 7, 64} {
		o := New(Options{MetricsEvery: every})
		for from := int64(0); from < 3*every+1; from++ {
			got, ok := o.NextSnapshot(from)
			if !ok {
				t.Fatalf("every=%d from=%d: not ok", every, from)
			}
			if got < from || !o.SnapshotDue(got) {
				t.Fatalf("every=%d from=%d: next %d not a due slot at/after from", every, from, got)
			}
			for s := from; s < got; s++ {
				if o.SnapshotDue(s) {
					t.Fatalf("every=%d from=%d: slot %d due before reported next %d", every, from, s, got)
				}
			}
		}
	}
	var nilObs *Observer
	if _, ok := nilObs.NextSnapshot(0); ok {
		t.Fatal("nil observer reported a snapshot slot")
	}
}

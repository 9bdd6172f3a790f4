package matching

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestCyclicShiftValid(t *testing.T) {
	for n := 2; n <= 16; n++ {
		for k := 1; k < n; k++ {
			m := CyclicShift(n, k)
			if err := m.Validate(); err != nil {
				t.Fatalf("CyclicShift(%d,%d): %v", n, k, err)
			}
		}
	}
}

func TestCyclicShiftPanics(t *testing.T) {
	for _, k := range []int{0, 8, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("CyclicShift(8,%d) did not panic", k)
				}
			}()
			CyclicShift(8, k)
		}()
	}
}

func TestValidateRejectsBadMatchings(t *testing.T) {
	cases := []Matching{
		{0, 1, 2},    // all self loops
		{1, 0, 3, 3}, // duplicate destination
		{1, 2, 5},    // out of range
		{1, 0, 2},    // self loop at 2
	}
	for i, m := range cases {
		if m.Validate() == nil {
			t.Errorf("case %d: invalid matching accepted", i)
		}
	}
}

func TestInverse(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(30)
		m := CyclicShift(n, 1+r.Intn(n-1))
		inv := m.Inverse()
		for s, d := range m {
			if inv[d] != s {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestRoundRobinMatchesFigure1(t *testing.T) {
	// Figure 1: 5 nodes A-E, 4 slots. Slot 1: A->B, B->C, C->D, D->E, E->A.
	s := RoundRobin(5)
	if s.Period() != 4 {
		t.Fatalf("period = %d, want 4", s.Period())
	}
	want := [][]int{
		{1, 2, 3, 4, 0}, // B C D E A
		{2, 3, 4, 0, 1}, // C D E A B
		{3, 4, 0, 1, 2}, // D E A B C
		{4, 0, 1, 2, 3}, // E A B C D
	}
	for t1, row := range want {
		for n, dst := range row {
			if got := s.DestAt(n, t1); got != dst {
				t.Errorf("slot %d node %d: got %d want %d", t1, n, got, dst)
			}
		}
	}
	out := s.String()
	if !strings.Contains(out, "B\tC\tD\tE\tA") {
		t.Errorf("Figure 1 rendering wrong:\n%s", out)
	}
}

func TestRoundRobinProperties(t *testing.T) {
	for _, n := range []int{2, 3, 8, 17, 64} {
		s := RoundRobin(n)
		if err := s.Validate(); err != nil {
			t.Fatalf("RoundRobin(%d): %v", n, err)
		}
		if !s.FullCoverage() {
			t.Fatalf("RoundRobin(%d) lacks full coverage", n)
		}
		// Uniform connectivity: every pair exactly once per period.
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u == v {
					continue
				}
				if f := s.LinkFraction(u, v); f != 1/float64(n-1) {
					t.Fatalf("RoundRobin(%d) link %d->%d fraction %f", n, u, v, f)
				}
			}
		}
	}
}

func TestAWGRMatchings(t *testing.T) {
	ms := AWGRMatchings(8)
	if len(ms) != 7 {
		t.Fatalf("8-port AWGR should offer 7 matchings, got %d", len(ms))
	}
	for i, m := range ms {
		if err := m.Validate(); err != nil {
			t.Fatalf("m%d: %v", i+1, err)
		}
		for j := 0; j < i; j++ {
			if m.Equal(ms[j]) {
				t.Fatalf("matchings %d and %d identical", i, j)
			}
		}
	}
}

func TestScheduleValidateErrors(t *testing.T) {
	bad := []*Schedule{
		{N: 1, Slots: []Matching{{0}}},
		{N: 4},
		{N: 4, Slots: []Matching{{1, 0}}},
		{N: 3, Slots: []Matching{{0, 1, 2}}},
	}
	for i, s := range bad {
		if s.Validate() == nil {
			t.Errorf("case %d: invalid schedule accepted", i)
		}
	}
}

func TestNeighborsAndDestAtWrap(t *testing.T) {
	s := RoundRobin(4)
	nb := s.Neighbors(0)
	if len(nb) != 3 || nb[0] != 1 || nb[2] != 3 {
		t.Fatalf("neighbors of 0: %v", nb)
	}
	// DestAt must wrap modulo the period.
	if s.DestAt(2, 0) != s.DestAt(2, s.Period()) {
		t.Fatal("DestAt does not wrap")
	}
}

func TestCompiledNextSlot(t *testing.T) {
	s := RoundRobin(5)
	c := Compile(s)
	// Node 0 connects to node 3 in slot 2 (shift 3).
	got, ok := c.NextSlot(0, 3, 0)
	if !ok || got != 2 {
		t.Fatalf("NextSlot(0,3,0) = %d,%v want 2,true", got, ok)
	}
	// From slot 3, the next occurrence is in the following period: 4+2=6.
	got, ok = c.NextSlot(0, 3, 3)
	if !ok || got != 6 {
		t.Fatalf("NextSlot(0,3,3) = %d,%v want 6,true", got, ok)
	}
	// From exactly slot 2 the circuit is active now.
	if w, _ := c.WaitSlots(0, 3, 2); w != 0 {
		t.Fatalf("WaitSlots at active slot = %d", w)
	}
	if _, ok := c.NextSlot(0, 0, 0); ok {
		t.Fatal("self circuit should not exist")
	}
}

func TestCompiledNextSlotAgainstScan(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		n := 3 + r.Intn(20)
		s := RoundRobin(n)
		c := Compile(s)
		for trial := 0; trial < 20; trial++ {
			u := r.Intn(n)
			v := r.Intn(n)
			if u == v {
				continue
			}
			from := r.Intn(3 * s.Period())
			got, ok := c.NextSlot(u, v, from)
			if !ok {
				return false
			}
			// Naive scan.
			want := from
			for s.DestAt(u, want) != v {
				want++
			}
			if got != want {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestMaxWaitRoundRobin(t *testing.T) {
	s := RoundRobin(8)
	c := Compile(s)
	// Each circuit appears once per period of 7, so the max gap is 7.
	for u := 0; u < 8; u++ {
		for v := 0; v < 8; v++ {
			if u == v {
				continue
			}
			w, ok := c.MaxWait(u, v)
			if !ok || w != 7 {
				t.Fatalf("MaxWait(%d,%d) = %d,%v", u, v, w, ok)
			}
		}
	}
	if _, ok := c.MaxWait(0, 0); ok {
		t.Fatal("MaxWait for absent circuit should report false")
	}
}

func TestHasCircuit(t *testing.T) {
	s := &Schedule{N: 4, Slots: []Matching{{1, 0, 3, 2}}}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	c := Compile(s)
	if !c.HasCircuit(0, 1) || c.HasCircuit(0, 2) {
		t.Fatal("HasCircuit wrong")
	}
	if c.Schedule() != s {
		t.Fatal("Schedule() accessor wrong")
	}
}

func BenchmarkCompile(b *testing.B) {
	s := RoundRobin(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compile(s)
	}
}

func BenchmarkNextSlot(b *testing.B) {
	c := Compile(RoundRobin(256))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.NextSlot(i%256, (i+7)%256, i)
	}
}

func TestNodeNameLargeNetwork(t *testing.T) {
	// Networks beyond 26 nodes render numerically.
	s := RoundRobin(30)
	out := s.String()
	if !strings.Contains(out, "29") {
		t.Fatalf("numeric labels missing:\n%s", out[:120])
	}
}

func TestEqualMismatchedLengths(t *testing.T) {
	a := CyclicShift(4, 1)
	b := CyclicShift(6, 1)
	if a.Equal(b) {
		t.Fatal("different-size matchings reported equal")
	}
}

func TestScheduleCloneIndependent(t *testing.T) {
	s := RoundRobin(6)
	c := s.Clone()
	c.Slots[0][0] = 5
	if s.Slots[0][0] == 5 {
		t.Fatal("clone shares slot storage")
	}
	if c.N != s.N || c.Period() != s.Period() {
		t.Fatal("clone shape wrong")
	}
}

// TestFullCoverageMatchesNeighbors: FullCoverage agrees with its
// definition through Neighbors (every node reaches the other N−1) on
// schedules made of random subsets of cyclic shifts, repeats included,
// and is false for a slot entry outside [0, N).
func TestFullCoverageMatchesNeighbors(t *testing.T) {
	r := rng.New(9)
	for trial := 0; trial < 200; trial++ {
		n := 2 + r.Intn(12)
		s := &Schedule{N: n}
		for k := 1; k < n; k++ {
			for rep := r.Intn(3); rep > 0; rep-- {
				s.Slots = append(s.Slots, CyclicShift(n, k))
			}
		}
		if len(s.Slots) == 0 {
			s.Slots = append(s.Slots, CyclicShift(n, 1))
		}
		want := true
		for u := 0; u < n; u++ {
			want = want && len(s.Neighbors(u)) == n-1
		}
		if got := s.FullCoverage(); got != want {
			t.Fatalf("n=%d, %d slots: FullCoverage = %v, Neighbors say %v", n, s.Period(), got, want)
		}
	}
	s := RoundRobin(4)
	s.Slots[0] = Matching{1, 2, 3, 4}
	if s.FullCoverage() {
		t.Fatal("FullCoverage accepted an out-of-range circuit")
	}
}

func TestRoundRobinPanicsOnTiny(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RoundRobin(1) did not panic")
		}
	}()
	RoundRobin(1)
}

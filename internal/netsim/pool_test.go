package netsim

import (
	"fmt"
	"testing"

	"repro/internal/matching"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/schedule"
	"repro/internal/workload"
)

// queueChunks returns the chunks f holds, head to tail, checking that
// its links stay inside the pool and end where its tail says.
func queueChunks(p *cellPool, f *fifo) ([]uint32, error) {
	if f.len() == 0 {
		if f.tail%chunkCells != 0 {
			return []uint32{f.tail / chunkCells}, nil
		}
		return nil, nil
	}
	pos := f.head
	if pos/chunkCells >= uint32(p.used) {
		return nil, fmt.Errorf("head %d outside the %d chunks handed out", pos, p.used)
	}
	ks := []uint32{pos / chunkCells}
	for i := f.len(); i > 1; i-- {
		pos++
		if pos%chunkCells == 0 {
			k := p.next[pos/chunkCells-1]
			if k < 0 || k >= p.used {
				return nil, fmt.Errorf("chunk %d links to %d, outside the %d chunks handed out", pos/chunkCells-1, k, p.used)
			}
			pos = uint32(k) * chunkCells
			ks = append(ks, uint32(k))
		}
	}
	if f.tail != pos+1 {
		return nil, fmt.Errorf("%d cells from head %d end at %d, tail is %d", f.len(), f.head, pos, f.tail)
	}
	return ks, nil
}

// auditChunks checks a pool's accounting against the queues drawing
// from it: every chunk handed out is held by exactly one queue or sits
// on the free list, never both, and no chunk is lost. It returns the
// number of chunks the queues hold.
func auditChunks(p *cellPool, each func(fn func(*fifo))) (held int, err error) {
	if len(p.cells) != len(p.next)*chunkCells || int(p.used) > len(p.next) {
		return 0, fmt.Errorf("pool of %d cells, %d links, %d chunks used", len(p.cells), len(p.next), p.used)
	}
	const (
		unseen = iota
		linked
		free
	)
	state := make([]byte, p.used)
	each(func(f *fifo) {
		if err != nil {
			return
		}
		ks, qerr := queueChunks(p, f)
		if qerr != nil {
			err = qerr
			return
		}
		for _, k := range ks {
			if state[k] != unseen {
				err = fmt.Errorf("chunk %d held by two queues", k)
				return
			}
			state[k] = linked
			held++
		}
	})
	if err != nil {
		return 0, err
	}
	steps := 0
	for k := p.free; k >= 0; k = p.next[k] {
		if k >= p.used {
			return 0, fmt.Errorf("free chunk %d outside the %d handed out", k, p.used)
		}
		switch state[k] {
		case linked:
			return 0, fmt.Errorf("chunk %d is both free and linked", k)
		case free:
			return 0, fmt.Errorf("chunk %d is on the free list twice", k)
		}
		state[k] = free
		if steps++; steps > int(p.used) {
			return 0, fmt.Errorf("free list longer than the %d chunks handed out", p.used)
		}
	}
	for k, st := range state {
		if st == unseen {
			return 0, fmt.Errorf("chunk %d leaked: neither held nor free", k)
		}
	}
	return held, nil
}

// auditSim audits the cell pool against every VOQ and returns the
// chunks the VOQs hold.
func auditSim(t *testing.T, s *Sim) int {
	t.Helper()
	held, err := auditChunks(&s.pool, func(fn func(*fifo)) {
		for u := range s.voq {
			for v := range s.voq[u] {
				fn(&s.voq[u][v])
			}
		}
	})
	if err != nil {
		t.Fatalf("slot %d: %v", s.Slot(), err)
	}
	return held
}

// fifoBoundarySeed is the chunk-boundary case: queue 0's first chunk
// (1) directly follows its full last chunk (0), so its head and tail are
// the same position while it holds 16 cells. Emptiness read as
// head == tail would lose them.
func fifoBoundarySeed() []byte {
	const push0, pop0 = 0x00, 0x10
	var b []byte
	add := func(op byte, k int) {
		for i := 0; i < k; i++ {
			b = append(b, op)
		}
	}
	add(push0, 9) // chunk 0 full, one cell in chunk 1
	add(pop0, 8)  // chunk 0 freed; head at the start of chunk 1
	add(push0, 7) // chunk 1 full
	add(push0, 8) // chunk 0 again, linked after chunk 1: tail == head
	add(pop0, 17) // sixteen cells, then one pop of an empty queue
	return b
}

// FuzzFIFO drives one pool and four queues with fuzzed push, pop, purge
// and drop sequences against a slice-of-slices reference. Each byte is
// one operation on queue b&3: (b>>2)&7 of 0-3 pushes 1, 2, 4 or 8
// cells, 4-5 pops one, 6 pops all (FailNode's purge, which keeps the
// queue's last chunk) and 7 pops all and drops the queue (Reconfigure's
// old table). After every operation each queue must hold the reference
// cells in order, and the pool's chunks must be accounted for.
func FuzzFIFO(f *testing.F) {
	f.Add(fifoBoundarySeed())
	f.Add([]byte{0x0c, 0x0d, 0x0e, 0x0f, 0x10, 0x19, 0x1e, 0x1f, 0x0c, 0x18})
	grow := make([]byte, 0, 200) // 8-cell pushes past the pool's first 64 chunks
	for i := 0; i < 100; i++ {
		grow = append(grow, 0x0c|byte(i&3))
	}
	f.Add(append(grow, 0x1b, 0x1c, 0x01, 0x12))
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			return
		}
		var p cellPool
		p.reset()
		qs := make([]fifo, 4)
		ref := make([][]int32, len(qs))
		id := int32(0)
		popCheck := func(q int) {
			c, ok := qs[q].pop(&p)
			if len(ref[q]) == 0 {
				if ok {
					t.Fatalf("queue %d: pop of an empty queue returned flow %d", q, c.flow)
				}
				return
			}
			if !ok {
				t.Fatalf("queue %d: pop returned nothing, %d cells queued", q, len(ref[q]))
			}
			want := ref[q][0]
			ref[q] = ref[q][1:]
			if c.flow != want || c.rest[0] != int16(want) || c.idx != uint8(want) {
				t.Fatalf("queue %d: popped flow %d, want %d", q, c.flow, want)
			}
		}
		for i, b := range ops {
			q := int(b & 3)
			switch op := (b >> 2) & 7; {
			case op < 4:
				for k := 0; k < 1<<op; k++ {
					c := cell{flow: id, idx: uint8(id)}
					c.rest[0] = int16(id)
					qs[q].push(&p, &c)
					ref[q] = append(ref[q], id)
					id++
				}
			case op < 6:
				popCheck(q)
			default:
				for len(ref[q]) > 0 {
					popCheck(q)
				}
				popCheck(q)
				if op == 7 {
					qs[q].drop(&p)
				}
			}
			for j := range qs {
				if qs[j].len() != len(ref[j]) {
					t.Fatalf("op %d: queue %d len %d, want %d", i, j, qs[j].len(), len(ref[j]))
				}
				k := 0
				qs[j].each(&p, func(c *cell) {
					if k >= len(ref[j]) || c.flow != ref[j][k] {
						t.Fatalf("op %d: queue %d cell %d is flow %d, want %v", i, j, k, c.flow, ref[j])
					}
					k++
				})
			}
			if _, err := auditChunks(&p, func(fn func(*fifo)) {
				for j := range qs {
					fn(&qs[j])
				}
			}); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	})
}

// poolLoad bounds the cells the pool holds during the next Step and any
// serial call before the next injection: those queued plus those in
// flight, which a landing phase may push before transmit pops.
// Reconfigure and FailNode add no cells, and a reroute re-enqueues at
// the same node.
func poolLoad(s *Sim) int64 {
	return s.Backlog() + int64(s.InFlight())
}

// TestPoolNoLeakThroughReconfigureAndFailNode runs a saturated
// simulation through 50 Reconfigure calls under FailNode/RepairNode
// churn. The pool must account for each chunk it handed out (auditSim),
// and hand out no more chunks than its peak load needs: peak/chunkCells plus four per VOQ — a queue's head and tail
// chunks can each be partly filled, and a Reconfigure holds the old
// table's queues and the new one's at once. A Reconfigure that lost the
// chunk an emptied old queue kept would leak about one chunk per queue
// per call and break the bound. Conservation must hold throughout.
func TestPoolNoLeakThroughReconfigureAndFailNode(t *testing.T) {
	const n = 16
	type design struct {
		sched  *matching.Schedule
		router routing.Router
	}
	var designs []design
	for _, sc := range []schedule.SORNConfig{{N: n, Nc: 4, Q: 1.5}, {N: n, Nc: 2, Q: 3}} {
		b, err := schedule.BuildSORN(sc)
		if err != nil {
			t.Fatal(err)
		}
		designs = append(designs, design{b.Schedule, routing.NewSORN(b)})
	}
	flat := matching.RoundRobin(n)
	vlb, err := routing.NewVLB(flat)
	if err != nil {
		t.Fatal(err)
	}
	designs = append(designs, design{flat, vlb})
	s, err := New(Config{Schedule: designs[0].sched, Router: designs[0].router, SlotNS: 100, PropNS: 500, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	s.StartMeasuring()
	tm := workload.Uniform(n)
	r := rng.New(5)
	peak := int64(0)
	notePeak := func() {
		if l := poolLoad(s); l > peak {
			peak = l
		}
	}
	failed := -1
	for round := 0; round < 50; round++ {
		for slot := 0; slot < 40; slot++ {
			for u := 0; u < n; u++ {
				for !s.failedNode[u] && s.fresh[u] < 48 {
					dst := tm.SampleDest(u, r)
					s.InjectFlow(u, dst, 1+r.Intn(12))
				}
			}
			notePeak()
			s.Step()
		}
		if round%3 == 0 {
			if failed >= 0 {
				s.RepairNode(failed)
			}
			failed = r.Intn(n)
			s.FailNode(failed)
			auditSim(t, s)
		}
		d := designs[(round+1)%len(designs)]
		if err := s.Reconfigure(d.sched, d.router); err != nil {
			t.Fatal(err)
		}
		held := auditSim(t, s)
		checkConservation(t, s)
		if bound := peak/chunkCells + int64(4*n*n); int64(s.pool.used) > bound {
			t.Fatalf("round %d: %d chunks handed out (%d held now), bound %d from peak load %d",
				round, s.pool.used, held, bound, peak)
		}
	}
	for i := 0; i < 20000 && !s.Drained(); i++ {
		s.Step()
	}
	checkConservation(t, s)
	auditSim(t, s)
	if !s.Drained() {
		t.Fatalf("%d cells still queued after the drain", s.Backlog())
	}
}

// TestSaturatedStepAllocatesNothing: once the cell pools have reached
// their high-water mark, a saturated Step allocates nothing. The first
// pass primes and steps a serial simulator, growing every buffer to
// what the run needs; Reset keeps those buffers, and the replayed run
// must then step without one allocation. Latency sampling and the
// measurement window stay off (their samples grow by design).
func TestSaturatedStepAllocatesNothing(t *testing.T) {
	built, err := schedule.BuildSORN(schedule.SORNConfig{N: 128, Nc: 8, Q: 4.5})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Schedule: built.Schedule, Router: routing.NewSORN(built), SlotNS: 100, PropNS: 500, Seed: 1}
	tm, err := workload.Locality(built.Cliques, 0.56)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 300
	prime := func(s *Sim) {
		for u := 0; u < s.n; u++ {
			for s.fresh[u] < 4*steps {
				s.InjectFlow(u, tm.SampleDest(u, s.rng), 8)
			}
		}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prime(s)
	for i := 0; i < steps+1; i++ {
		s.Step()
	}
	if err := s.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	prime(s)
	if got := testing.AllocsPerRun(steps, s.Step); got != 0 {
		t.Fatalf("saturated Step allocates %v times per call", got)
	}
	if s.Backlog() == 0 {
		t.Fatal("the backlog drained: the measured Steps were not saturated")
	}
}

// Package netsim is a slot-synchronous, cell-level discrete-event
// simulator for circuit-switched reconfigurable networks. Every time slot,
// each node has one active circuit (per plane) given by the schedule; a
// node transmits at most one cell per plane per slot on that circuit, the
// cell arrives after a propagation delay, and intermediate nodes queue
// cells per next-hop in virtual output queues. This is the abstraction
// the paper's designs share (Sirius, Opera, optimal ORNs, SORN), and the
// vehicle for the Figure 2(f) simulation: 128 nodes in 8 cliques under
// pFabric-style traffic.
//
// Routing is source routing chosen per cell at injection: the router's
// "first available" load-balancing hop rotates with the injection slot,
// reproducing the per-slot spreading real designs get from transmitting
// consecutive cells on consecutive circuits (paper §4, footnote 1).
//
// # Slot order
//
// Step runs one slot serially, in a fixed order: the landing phase walks
// destinations in (node, plane) order, then the transmit phase pops
// sources' VOQs. Every slot of every plane is a matching, so each
// delay-line entry has one possible writer and the ordered pass is
// deterministic by construction. Each effect — the backlog total, a
// flow's lost cells, the per-pair worklist, a trace event — is written
// where it happens, by a phase or by a serial call between Steps
// (InjectFlow, FailNode, Reconfigure), so it is visible the moment the
// call that made it returns, and trace events are emitted in the order
// they happen. Latency sampling and landing-time reroutes draw from
// per-node rng streams split serially at construction, so their draw
// sequences depend only on each node's own event order.
package netsim

import (
	"fmt"
	"math"
	"slices"
	"unsafe"

	"repro/internal/matching"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/stats"
	"repro/internal/workload"
)

// maxWaypoints bounds route length: a route names at most this many
// nodes after its source, one per hop (SORN uses 3, a 3D ORN 6). A cell
// stores all of them but the first, which the VOQ it sits in already
// names, so the bound is what fixes the cell at 16 bytes (see cell).
const maxWaypoints = 6

// flowBlockBits sizes the flow arena blocks (1024 flows, ~40 KiB each):
// flows are reachable by index without a per-flow allocation, stay
// pointer-stable as the arena grows, and neighbouring slots share cache
// lines (the hot delivered/size pair is touched on every delivery).
const flowBlockBits = 10

// Config parameterizes a simulation.
type Config struct {
	Schedule *matching.Schedule
	Router   routing.Router
	// SlotNS and PropNS set the slot duration and per-hop propagation
	// delay in nanoseconds. Propagation is rounded up to whole slots.
	// SlotNS 0 means 100 ns; neither may be negative.
	SlotNS int64
	PropNS int64
	Seed   uint64
	// LatencySampleEvery records the end-to-end latency of every k-th
	// delivered cell (0 disables sampling; negative is an error).
	LatencySampleEvery int
	// QueueLimit caps each virtual output queue, in cells; cells pushed
	// onto a full queue are dropped (counted in Stats.DroppedCells). 0
	// means unbounded — the default, since the paper's designs assume
	// deep NIC buffers. Negative is an error.
	QueueLimit int
	// Planes is the number of parallel uplinks per node (default 1).
	// Each plane runs the same schedule phase-staggered by
	// period/Planes slots, and a node transmits up to one cell per plane
	// per slot — the paper's 16-uplink deployment, and the reason
	// Table 1 divides δm by the uplink count.
	Planes int
	// Obs, when non-nil, attaches the observability layer: per-slot
	// metric updates, phase wall-clock timing, and an event trace (flow
	// start/finish, failures, reconfigurations). nil — the default —
	// costs the hot path one predictable branch per slot phase, and an
	// enabled observer never perturbs Stats (see TestObsNonPerturbation).
	Obs *obs.Observer
}

// FlowState tracks one flow through the simulator. It lives in an arena
// slot only while the flow is in flight: once every cell has been
// delivered or lost (delivered + lost == size, the flow has settled) the
// slot is free, and a later InjectFlow overwrites it. Until then the
// settled state stays readable through the pointer InjectFlow returned.
type FlowState struct {
	id        int32
	src, dst  int32
	size      int32
	delivered int32
	lost      int32
	arrival   int64
	done      int64 // slot of last cell delivery; -1 while in flight
}

// Done reports whether every cell of the flow has been delivered.
func (f *FlowState) Done() bool { return f.done >= 0 }

// CompletionSlots returns the flow completion time in slots, or -1 while
// the flow is still in flight.
func (f *FlowState) CompletionSlots() int64 {
	if f.done < 0 {
		return -1
	}
	return f.done - f.arrival
}

// Delivered returns how many of the flow's cells have arrived.
func (f *FlowState) Delivered() int { return int(f.delivered) }

// Lost returns how many of the flow's cells were dropped by failed links
// or nodes.
func (f *FlowState) Lost() int { return int(f.lost) }

// Endpoints returns the flow's source and destination.
func (f *FlowState) Endpoints() (src, dst int) { return int(f.src), int(f.dst) }

// cell is one port-slot of data in flight, 16 bytes. Its route's
// waypoints are the nodes after the source, one per hop; idx counts the
// hops already taken, so waypoint idx is the one the cell is queued or
// in flight toward — v for a cell in VOQ [u][v] or on the circuit into
// v. Waypoint 0 is therefore never stored: injection names it by the
// source VOQ it picks. rest holds waypoints 1 onward (waypoint i is
// rest[i-1]); landing reads the next one to pick the landing node's
// VOQ, and dst reads the last. The flow is referenced by its index into
// the flow arena rather than by pointer, keeping the struct
// pointer-free: the n² virtual output queues then cost the garbage
// collector no scan work and their writes no barriers. The injection
// slot is not stored either — every cell of a flow is injected at the
// flow's arrival slot, so latency accounting reads FlowState.arrival.
// At 16 bytes a cell never straddles a cache line, and every queue
// push, ring write and pop copies a third less than the 24-byte layout
// that stored every waypoint.
type cell struct {
	flow int32
	rest [maxWaypoints - 1]int16
	hops uint8 // hop count, with freshBit set while queued at its source
	idx  uint8
}

// cellBytes is the size of a cell.
const cellBytes = int(unsafe.Sizeof(cell{}))

// freshBit marks a cell still queued at its source, never transmitted.
const freshBit = 0x80

// hopCount returns the length of the cell's route in hops.
func (c *cell) hopCount() int { return int(c.hops &^ freshBit) }

// isFresh reports whether the cell is still queued at its source.
func (c *cell) isFresh() bool { return c.hops&freshBit != 0 }

// dst returns the cell's final destination without the flow-arena
// lookup, given next, the waypoint the cell is queued or in flight
// toward: that one for a 1-hop route, the last stored one otherwise.
func (c *cell) dst(next int) int {
	if n := c.hopCount(); n > 1 {
		return int(c.rest[n-2])
	}
	return next
}

// chunkCells is the VOQ storage granule: a queue is a chain of chunks
// of this many cells (128 bytes, two cache lines) drawn from the Sim's
// cellPool.
const chunkCells = 8

// cellPool is the VOQ cell storage: a flat array of chunkCells-cell
// chunks, one link per chunk, and a LIFO free list threaded through
// those links. A pop that finishes a chunk frees it and
// the next push that needs a chunk takes the most recently freed one,
// so pushes write lines a pop read moments ago, not a cold line per
// queue. The pool doubles when every chunk is in use and never
// shrinks, so it grows only when the queued total reaches a new peak;
// reset rewinds it for a Reset Sim.
type cellPool struct {
	cells []cell  // chunk k is cells[k*chunkCells : (k+1)*chunkCells]
	next  []int32 // per chunk: the queue's next chunk, or the next free chunk
	free  int32   // most recently freed chunk, -1 when none is free
	used  int32   // chunks handed out since the last reset; the rest were never used
}

// reset returns every chunk to the pool, keeping the storage.
func (p *cellPool) reset() {
	p.free = -1
	p.used = 0
}

// take hands out a chunk: the most recently freed one, else the first
// never-used one, growing the pool when none is left.
func (p *cellPool) take() uint32 {
	if k := p.free; k >= 0 {
		p.free = p.next[k]
		return uint32(k)
	}
	if int(p.used) == len(p.next) {
		p.grow()
	}
	p.used++
	return uint32(p.used - 1)
}

// release puts chunk k on top of the free list.
func (p *cellPool) release(k uint32) {
	p.next[k] = p.free
	p.free = int32(k)
}

// grow doubles the pool. Storage is sized with make, not append, so a
// pool at its peak holds exactly its chunk count. A large cell array is
// advised for huge pages before the copy first touches it.
//
//sornlint:coldpath
func (p *cellPool) grow() {
	chunks := 2 * len(p.next)
	if chunks == 0 {
		chunks = 64
	}
	cells := make([]cell, chunks*chunkCells)
	adviseHugePages(cells)
	copy(cells, p.cells)
	next := make([]int32, chunks)
	copy(next, p.next)
	p.cells, p.next = cells, next
}

// fifo is one VOQ: a chain of chunks in the Sim's cellPool. head and
// tail are cell positions in that pool — the next cell to pop
// (meaningless while the queue holds no chunk) and where the next push
// writes. The queued-cell count is tail − mark
// (uint32 arithmetic), so a push moves only tail; pops and links move
// mark instead. Emptiness is that count, not head == tail: the end of
// one chunk and the start of the next are the same position. A queue
// with a full last chunk (tail at a chunk boundary) takes a new chunk
// on its next push, and an empty one keeps its last chunk unless a pop
// just finished it, so an empty queue holds at most one chunk.
type fifo struct {
	head, tail uint32
	mark       uint32 // tail − queued cells
}

// push appends a cell, taking a new chunk (link) once every chunkCells
// pushes. It stays within the inliner's budget, so an enqueue pays a
// call only when the push takes a new chunk.
//
//sornlint:hotpath
func (f *fifo) push(p *cellPool, c *cell) {
	if f.tail%chunkCells == 0 {
		f.link(p)
	}
	p.cells[f.tail] = *c
	f.tail++
}

// link moves the tail of a queue whose last chunk is full, or that has
// none, to the start of a new chunk.
func (f *fifo) link(p *cellPool) {
	k := p.take()
	n := f.tail - f.mark
	if n == 0 {
		f.head = k * chunkCells
	} else {
		p.next[(f.tail-1)/chunkCells] = int32(k)
	}
	f.tail = k * chunkCells
	f.mark = f.tail - n
}

// pop removes the head cell, returning a pointer into the pool. Pops
// never write cell memory (a finished chunk's link word lives in
// cellPool.next), so the pointee stays valid until the next push into
// the same pool, even across further pops. Within a Step no push can
// come before the caller is done with it (pops happen in the transmit
// phase, pushes in landing/injection), which is what lets the
// saturated transmit pop a whole plane before it reads any popped
// cell; a serial caller that pushes between pops copies the cell
// first. Popping a chunk's last cell frees the chunk and moves head to
// the next one.
//
//sornlint:hotpath
func (f *fifo) pop(p *cellPool) (*cell, bool) {
	if f.tail == f.mark {
		return nil, false
	}
	c := &p.cells[f.head]
	f.head++
	f.mark++
	if f.head%chunkCells == 0 {
		k := f.head/chunkCells - 1
		f.head = uint32(p.next[k]) * chunkCells
		p.release(k)
	}
	return c, true
}

func (f *fifo) len() int { return int(f.tail - f.mark) }

// each calls fn for every queued cell, head to tail.
func (f *fifo) each(p *cellPool, fn func(*cell)) {
	pos := f.head
	for i := f.len(); i > 0; i-- {
		fn(&p.cells[pos])
		pos++
		if pos%chunkCells == 0 && i > 1 {
			pos = uint32(p.next[pos/chunkCells-1]) * chunkCells
		}
	}
}

// drop empties a queue whose cells were all popped, returning the chunk
// it kept to the pool. Reconfigure drops each queue of the table it
// replaces, so no chunk leaks with the old table.
func (f *fifo) drop(p *cellPool) {
	if f.tail%chunkCells != 0 {
		p.release(f.tail / chunkCells)
	}
	*f = fifo{}
}

// Stats accumulates measurement-window counters.
type Stats struct {
	DeliveredCells int64 // final-hop deliveries
	InjectedCells  int64
	SentCells      int64 // link transmissions (all hops)
	// IdleSlots counts node-plane-slots in which a live node had an
	// active circuit but no cell queued for it — whether or not other
	// cells were queued for different circuits. Self-circuit slots
	// (which a validated schedule cannot contain) would be excluded,
	// since the node could never transmit on them.
	IdleSlots      int64
	LostCells      int64 // dropped by failed links/nodes
	DroppedCells   int64 // dropped by full queues (QueueLimit)
	MeasuredSlots  int64
	CompletedFlows int64
	Planes         int // parallel uplinks measured (normalizes Throughput)

	// LatencySlots samples end-to-end cell latency (injection→delivery),
	// in slots. FCTSlots samples flow completion times. LatencyByHops
	// breaks the latency samples down by path length, separating e.g.
	// SORN's 2-hop intra-clique traffic from its 3-hop inter-clique
	// traffic in a single run (index = hop count; 0 unused, and so is
	// 7: no route is longer than maxWaypoints hops).
	LatencySlots  stats.Sample
	FCTSlots      stats.Sample
	LatencyByHops [8]stats.Sample
}

// Throughput returns delivered cells per node per slot per plane — the
// paper's r (fraction of node bandwidth) when the network is saturated.
func (s *Stats) Throughput(n int) float64 {
	if s.MeasuredSlots == 0 {
		return 0
	}
	planes := s.Planes
	if planes == 0 {
		planes = 1
	}
	return float64(s.DeliveredCells) / float64(s.MeasuredSlots) / float64(n) / float64(planes)
}

// MeanHops returns transmissions per delivered cell (the bandwidth tax).
func (s *Stats) MeanHops() float64 {
	if s.DeliveredCells == 0 {
		return 0
	}
	return float64(s.SentCells) / float64(s.DeliveredCells)
}

// poppedCell is one pop of the saturated transmit waiting to be forwarded:
// the cell, still in its pool (see fifo.pop), and the circuit u→v it
// leaves on.
type poppedCell struct {
	c    *cell
	u, v int32
}

// circuitSet records which directed circuits a schedule ever opens —
// the landing phase's "does this cell's next circuit still exist" check
// after a reconfiguration. Small simulations keep the O(1) n² bitmap;
// past denseCircuitMax nodes that bitmap alone would rival the rest of
// the simulator's footprint, so only the per-source sorted neighbor
// lists are kept and lookups binary-search them (schedules are sparse:
// a node's circuit degree is the period × planes at most, typically
// tens). The neighbor lists always exist — ReconfigureGraceful walks
// them to find removed circuits in O(n·degree) instead of O(n²).
type circuitSet struct {
	n     int
	nbr   [][]int16 // per-source sorted distinct circuit partners
	dense []bool    // u*n+v bitmap; nil when n > denseCircuitMax
}

// denseCircuitMax bounds the n² circuit bitmap (1024 nodes = 1 MiB);
// larger simulations fall back to binary-searched neighbor lists.
const denseCircuitMax = 1024

func newCircuitSet(sched *matching.Schedule) *circuitSet {
	n := sched.N
	cs := &circuitSet{n: n, nbr: make([][]int16, n)}
	if n <= denseCircuitMax {
		cs.dense = make([]bool, n*n)
		for _, row := range sched.Slots {
			for u, v := range row {
				cs.dense[u*n+v] = true
			}
		}
		for u := 0; u < n; u++ {
			rowd := cs.dense[u*n : u*n+n]
			deg := 0
			for _, b := range rowd {
				if b {
					deg++
				}
			}
			lst := make([]int16, 0, deg)
			for v, b := range rowd {
				if b {
					lst = append(lst, int16(v))
				}
			}
			cs.nbr[u] = lst
		}
		return cs
	}
	for _, row := range sched.Slots {
		for u, v := range row {
			cs.nbr[u] = append(cs.nbr[u], int16(v))
		}
	}
	for u := range cs.nbr {
		slices.Sort(cs.nbr[u])
		cs.nbr[u] = slices.Compact(cs.nbr[u])
	}
	return cs
}

// has reports whether the schedule ever circuits u→v. The bitmap branch
// is the landing hot path; the sparse lookup is split out so has stays
// within its callers' inlining budget.
//
//sornlint:hotpath
func (cs *circuitSet) has(u, v int) bool {
	if cs.dense != nil {
		return cs.dense[u*cs.n+v]
	}
	return cs.hasSparse(u, v)
}

func (cs *circuitSet) hasSparse(u, v int) bool {
	_, ok := slices.BinarySearch(cs.nbr[u], int16(v))
	return ok
}

// Sim is a running simulation. Create with New, drive with Step/Run
// variants, read Stats.
type Sim struct {
	cfg       Config
	n         int
	sched     *matching.Schedule
	router    routing.Router
	propSlots int64
	slot      int64
	planes    int
	offsets   []int64 // per-plane phase offset into the schedule
	rng       *rng.RNG
	// latRngs[v] drives latency sampling of deliveries at node v on its
	// own stream: enabling or tuning sampling never perturbs the
	// workload stream (rng), and each node's draw sequence depends only
	// on its own delivery order.
	latRngs    []rng.RNG
	sampleProb float64
	// nodeRngs[u] feeds landing-time reroutes at node u (routers like
	// the ORN spray draw a random intermediate), again so the draw
	// sequence depends only on the node's own landing order.
	nodeRngs []rng.RNG

	// VOQ rows are allocated lazily, the first time a cell queues at the
	// row's node, so memory scales with the nodes that actually carry
	// traffic instead of always paying n² queue headers (at 2048 nodes
	// the flat layout cost ~100 MiB before a single cell moved). A nil
	// row means "all of u's queues are empty". A row holds only queue
	// headers; the cells sit in pool.
	voq [][]fifo // rows indexed [u][next]
	// spareVOQ is the table the last Reconfigure drained, every queue
	// empty; the next Reconfigure swaps it in instead of allocating.
	spareVOQ [][]fifo
	backlog  []int64
	fresh    []int64
	pool     cellPool

	// totalBacklog tracks the queued-cell total incrementally — every
	// push and pop updates it — so Backlog() is O(1). The quiescence
	// fast-forward consults it every open-loop slot.
	totalBacklog int64

	// freshPair counts never-transmitted cells per (src,dst) pair. Only
	// per-pair saturation reads it, so it is allocated lazily by the
	// first per-pair run, maintained only while trackPairs is set (a
	// random write into an n²-sized array per consumed cell is pure
	// overhead otherwise), and rebuilt from the queued cells when a
	// per-pair run starts.
	freshPair []int64

	// The delay line is direct-mapped: within a slot each plane's
	// circuits form a matching, so destination v receives at most one
	// cell per plane per slot and slot (s%ringSlots, v, p) has exactly
	// one possible writer. The landing phase scans each row in (node,
	// plane) order, which fixes the order of its per-node rng draws and
	// sample streams.
	ringSlots int
	ringCells []cell
	ringOcc   []bool
	// ringCount[slot%ringSlots] is the number of occupied entries in
	// that ring slot, so a slot with nothing arriving skips the
	// n×planes occupancy scan — most steps of a draining or lightly
	// loaded run. Step zeroes the row the landing phase emptied, the
	// transmit phase adds what it writes, and the landing phase reads
	// it; InFlight() sums it in O(ringSlots).
	ringCount []int32

	// Active-set engine state. activeSrc is the unordered list of
	// sources with queued cells; srcPos gives each node's position in it
	// (-1 when absent) for O(1) swap-removal. failedCount counts failed
	// nodes, keeping idle-slot accounting and the quiescence
	// fast-forward O(1).
	activeSrc   []int32
	srcPos      []int32
	failedCount int

	// reference, when non-nil, replaces Step's transmit phase body and
	// disables FastForwardTo. Only the package's tests set it, to run
	// the dense reference engine the active engine must match bit for
	// bit; init clears it, so production sims always run the active
	// engine and Reset still yields New's state.
	reference func(s *Sim)

	// Deficit worklist for per-pair saturation: when trackPairs is on,
	// every (src,dst) pair whose fresh-cell count drops is pushed onto
	// dirtyPairs (deduplicated by dirtyMark) so RunSaturated tops up only
	// pairs that can actually be short, instead of scanning all n² pairs
	// every slot.
	trackPairs bool
	dirtyPairs []int32
	dirtyMark  []bool

	// flows is a chunked arena of 1<<flowBlockBits FlowStates per block:
	// index-addressable, pointer-stable, allocation-free per flow. A slot
	// holds a flow only while it is in flight: settle pushes it onto
	// freeFlows when the flow's last cell is delivered or lost, and
	// newFlow pops the most recently settled slot before it hands out a
	// never-used one, so the arena peaks at the flows in flight at once,
	// not at the flows injected. nextFlow counts injections (flow ids in
	// trace events); completed counts the flows whose every cell was
	// delivered.
	flows     [][]FlowState
	usedFlows int32   // slots handed out since the last reset; the rest were never used
	freeFlows []int32 // settled slots, most recently settled last
	nextFlow  int32
	completed int

	// pairBits[src] holds two bitsets over destinations (see markPair):
	// bit dst of the pairSeen set is on once a flow from src to dst was
	// injected, of the pairHit set once one of those flows lost a cell,
	// so AffectedPairs needs no flow history. seenPairs and hitPairs
	// count the bits set. A row is allocated on its source's first
	// injection, like failedLink's on its first failed link.
	pairBits            [][]uint64
	seenPairs, hitPairs int

	routeBuf  routing.Route // scratch for the routes injection and reroutes compute
	popped    []poppedCell  // the saturated transmit's pops of one plane, one per node
	matchRows [][]int       // per-plane matching of the current slot

	measuring bool
	stats     Stats
	circuits  *circuitSet // which u→v circuits the schedule ever opens

	// failedLink rows are lazily allocated like VOQ rows: a nil outer
	// slice until the first FailLink (the fault-free fast path keeps a
	// single nil check per transmit phase), then nil rows for sources
	// with no failed outgoing links.
	failedLink [][]bool
	failedNode []bool

	// stepping guards the failure-injection contract: FailLink/FailNode
	// change what a Step's phases read, so they must be called between
	// Steps, never during one.
	stepping bool

	// obs is the optional observability layer; om caches the metric
	// handles the per-slot hook updates. Both nil when uninstrumented.
	// traceFlows caches obs.TraceFlows(): flow lifecycle events fire on
	// every injection and completion, so the check must be one flag
	// read, not an option lookup.
	obs        *obs.Observer
	om         *simMetrics
	traceFlows bool //sornlint:obsguard
}

// New builds a simulator.
func New(cfg Config) (*Sim, error) {
	s := &Sim{}
	if err := s.init(cfg); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset rewinds s to exactly the state New(cfg) would produce while
// reusing every allocation whose size still fits — the cell pool, the
// flow arena, the delay ring, the per-node rng stream slices. A
// per-worker pool (core.SimPool) resets one warm Sim per
// sweep point instead of reallocating ~n² queues each time; the
// fresh-vs-reset bit-identity contract is pinned by
// TestSimResetBitIdentity. The new schedule must keep the node count;
// a different N needs a new Sim (every reusable buffer is sized by n).
func (s *Sim) Reset(cfg Config) error {
	if s.stepping {
		panic("netsim: Reset called during Step")
	}
	if cfg.Schedule != nil && cfg.Schedule.N != s.n {
		return fmt.Errorf("netsim: Reset to %d nodes on a %d-node sim; allocate a new Sim", cfg.Schedule.N, s.n)
	}
	return s.init(cfg)
}

// init validates cfg and brings every field of s to its start-of-run
// state. On a fresh Sim it allocates; on a Reset it reuses what fits.
// Either way the resulting observable state is identical — reused
// buffers are rewound (VOQ headers, cell pools, flow-arena cursor) or
// cleared, and buffers whose stale contents are unreachable (pool
// chunks no queue holds, ring cells with a false occupancy bit, arena
// slots past usedFlows) are deliberately left dirty.
func (s *Sim) init(cfg Config) error {
	if cfg.Schedule == nil || cfg.Router == nil {
		return fmt.Errorf("netsim: schedule and router are required")
	}
	if err := cfg.Schedule.Validate(); err != nil {
		return err
	}
	if cfg.SlotNS < 0 {
		return fmt.Errorf("netsim: negative slot duration")
	}
	if cfg.SlotNS == 0 {
		cfg.SlotNS = 100
	}
	if cfg.PropNS < 0 {
		return fmt.Errorf("netsim: negative propagation delay")
	}
	if err := checkRouter(cfg.Schedule, cfg.Router); err != nil {
		return err
	}
	n := cfg.Schedule.N
	if n > 1<<15 {
		return fmt.Errorf("netsim: %d nodes exceed int16 node ids", n)
	}
	if cfg.Planes == 0 {
		cfg.Planes = 1
	}
	if cfg.Planes < 1 {
		return fmt.Errorf("netsim: plane count %d invalid", cfg.Planes)
	}
	if cfg.LatencySampleEvery < 0 {
		return fmt.Errorf("netsim: invalid config: LatencySampleEvery %d is negative (0 disables sampling)", cfg.LatencySampleEvery)
	}
	if cfg.QueueLimit < 0 {
		return fmt.Errorf("netsim: invalid config: QueueLimit %d is negative (0 means unbounded)", cfg.QueueLimit)
	}
	prop := (cfg.PropNS + cfg.SlotNS - 1) / cfg.SlotNS

	reuse := s.n == n
	// The circuit set depends only on the schedule; a pooled sweep
	// resetting to the same cached schedule skips the recomputation.
	sameSched := reuse && s.sched == cfg.Schedule && s.circuits != nil

	s.cfg = cfg
	s.n = n
	s.sched = cfg.Schedule
	s.router = cfg.Router
	s.propSlots = prop
	s.slot = 0
	s.planes = cfg.Planes
	s.rng = rng.New(cfg.Seed)

	if reuse {
		// Rewind allocated VOQ rows in place (a nil row is already the
		// empty state a fresh Sim would present).
		for _, row := range s.voq {
			clear(row)
		}
		clear(s.backlog)
		clear(s.fresh)
		clear(s.freshPair)
		clear(s.failedNode)
		for _, row := range s.pairBits {
			clear(row)
		}
	} else {
		s.voq = newVOQ(n)
		s.backlog = make([]int64, n)
		s.fresh = make([]int64, n)
		s.freshPair = nil // allocated lazily by the first per-pair saturation run
		s.failedNode = make([]bool, n)
		s.latRngs = make([]rng.RNG, n)
		s.nodeRngs = make([]rng.RNG, n)
		s.flows = nil
		s.pairBits = make([][]uint64, n)
		s.spareVOQ = nil
	}
	s.totalBacklog = 0
	s.failedCount = 0
	s.reference = nil
	// The xor constants just decorrelate the stream roots from the
	// workload seed; splitmix64 inside rng.New takes care of the rest.
	// Each root is split serially into one stream per node.
	rng.New(cfg.Seed ^ 0x6c61745f73616d70).SplitNInto(s.latRngs)
	rng.New(cfg.Seed ^ 0x7265726f75746573).SplitNInto(s.nodeRngs)
	s.sampleProb = 0
	if cfg.LatencySampleEvery > 0 {
		s.sampleProb = 1 / float64(cfg.LatencySampleEvery)
	}

	rs := int(prop) + 1
	if int64(rs)*int64(n)*int64(cfg.Planes) > math.MaxInt32 {
		// Ring rows count their cells in int32s (ringCount); a ring
		// this large would need ~50 GiB of cells anyway.
		return fmt.Errorf("netsim: delay ring of %d slots × %d nodes × %d planes exceeds int32 indexing", rs, n, cfg.Planes)
	}
	if reuse && len(s.ringCells) == rs*n*cfg.Planes {
		s.ringSlots = rs
		clear(s.ringOcc)
		clear(s.ringCount)
	} else {
		s.ringSlots = rs
		s.ringCells = make([]cell, rs*n*cfg.Planes)
		s.ringOcc = make([]bool, rs*n*cfg.Planes)
		s.ringCount = make([]int32, rs)
	}
	if len(s.matchRows) != cfg.Planes {
		s.matchRows = make([][]int, cfg.Planes)
	} else {
		clear(s.matchRows)
	}

	// Failure state returns to the fresh-Sim default: failedLink back to
	// nil restores the fault-free transmit fast path a pooled sim would
	// otherwise lose forever after one faulty run.
	s.failedLink = nil

	if !sameSched {
		s.circuits = newCircuitSet(cfg.Schedule)
	}
	s.stats = Stats{Planes: cfg.Planes}
	s.measuring = false
	s.offsets = planeOffsets(int64(cfg.Schedule.Period()), int64(cfg.Planes))

	s.trackPairs = false
	s.dirtyPairs = s.dirtyPairs[:0]
	if len(s.dirtyMark) == n*n {
		clear(s.dirtyMark)
	} else {
		s.dirtyMark = nil
	}

	// Rewind the flow arena: existing blocks are reused (newFlow fills
	// them before growing) and InjectFlow overwrites every field of a
	// recycled FlowState.
	s.usedFlows = 0
	s.freeFlows = s.freeFlows[:0]
	s.nextFlow = 0
	s.completed = 0
	s.seenPairs, s.hitPairs = 0, 0

	s.pool.reset()
	if len(s.popped) != n {
		s.popped = make([]poppedCell, n)
	}

	// Active-set state: no source active.
	if len(s.srcPos) != n {
		s.srcPos = make([]int32, n)
	}
	for i := range s.srcPos {
		s.srcPos[i] = -1
	}
	s.activeSrc = s.activeSrc[:0]

	s.obs, s.om, s.traceFlows = nil, nil, false
	if cfg.Obs != nil {
		s.obs = cfg.Obs
		s.om = newSimMetrics(cfg.Obs)
		s.om.invNP = 1 / float64(s.n*s.planes)
		s.traceFlows = cfg.Obs.TraceFlows()
	}
	return nil
}

// planeOffsets phase-staggers `planes` copies of a period-P schedule.
// When planes <= period, the offsets floor(p·P/planes) are strictly
// increasing, so every plane gets a distinct phase even when planes does
// not divide the period. With more planes than slots, distinct phases
// are impossible (pigeonhole); the remainder is round-robin-staggered so
// the per-phase plane counts differ by at most one.
func planeOffsets(period, planes int64) []int64 {
	out := make([]int64, planes)
	for p := int64(0); p < planes; p++ {
		if planes <= period {
			out[p] = p * period / planes
		} else {
			out[p] = p % period
		}
	}
	return out
}

// Slot returns the current absolute slot.
func (s *Sim) Slot() int64 { return s.slot }

// N returns the node count the simulator was built for — the one
// dimension Reset cannot change, so pools key reuse on it.
func (s *Sim) N() int { return s.n }

// Stats returns the accumulated measurement-window statistics.
func (s *Sim) Stats() *Stats { return &s.stats }

// flow returns the arena slot of flow index i. The pointer is stable:
// arena blocks are never moved or reallocated.
func (s *Sim) flow(i int32) *FlowState {
	return &s.flows[i>>flowBlockBits][i&(1<<flowBlockBits-1)]
}

// newFlow hands out an arena slot and its index: the most recently
// settled one, else the first never-used one, growing the arena by a
// block when none is left. After a Reset the blocks stay allocated, so
// growth happens only past the most flows any run had in flight at once.
func (s *Sim) newFlow() (*FlowState, int32) {
	if k := len(s.freeFlows) - 1; k >= 0 {
		i := s.freeFlows[k]
		s.freeFlows = s.freeFlows[:k]
		return s.flow(i), i
	}
	const mask = 1<<flowBlockBits - 1
	i := s.usedFlows
	if i&mask == 0 && int(i>>flowBlockBits) == len(s.flows) {
		s.flows = append(s.flows, make([]FlowState, 1<<flowBlockBits))
	}
	s.usedFlows++
	return &s.flows[i>>flowBlockBits][i&mask], i
}

// settle frees the slot of flow i, whose last cell has just been
// delivered or lost. The slot keeps the flow's final state until
// newFlow reuses it.
func (s *Sim) settle(i int32) { s.freeFlows = append(s.freeFlows, i) }

// loseCells charges k lost cells to flow i: the flow's pair counts as
// hit from its first lost cell, and the flow settles if they were its
// last.
func (s *Sim) loseCells(i, k int32) {
	f := s.flow(i)
	if f.lost == 0 && s.markPair(int(f.src), int(f.dst), pairHit) {
		s.hitPairs++
	}
	f.lost += k
	if f.delivered+f.lost == f.size {
		s.settle(i)
	}
}

// The two per-pair bitsets of a pairBits row, in row order.
const (
	pairSeen = iota // a flow from src to dst was injected
	pairHit         // one of those flows lost a cell
)

// markPair sets bit dst of src's set bitset, allocating src's row on
// first use, and reports whether the bit was clear.
func (s *Sim) markPair(src, dst, set int) bool {
	row := s.pairBits[src]
	if row == nil {
		row = make([]uint64, 2*((s.n+63)/64))
		s.pairBits[src] = row
	}
	w, b := set*len(row)/2+dst>>6, uint64(1)<<(dst&63)
	if row[w]&b != 0 {
		return false
	}
	row[w] |= b
	return true
}

// Backlog returns the total number of queued cells. The total is
// maintained incrementally, so the call is O(1) — cheap enough for a
// driver loop to consult every slot.
func (s *Sim) Backlog() int64 { return s.totalBacklog }

// InFlight returns the number of cells currently propagating on links,
// summed from the per-ring-slot occupancy counts in O(ringSlots).
func (s *Sim) InFlight() int {
	total := int32(0)
	for _, c := range s.ringCount {
		total += c
	}
	return int(total)
}

// Drained reports whether no cells remain queued or in flight.
func (s *Sim) Drained() bool { return s.Backlog() == 0 && s.InFlight() == 0 }

// StartMeasuring begins counting deliveries/injections (after warmup).
func (s *Sim) StartMeasuring() { s.measuring = true }

// failGuard enforces the failure-injection contract: FailLink, FailNode,
// RepairLink, and RepairNode mutate state — including the lazily
// allocated failedLink bitmap — that a Step's phases read. They take
// effect at the next Step when called between Steps; a call during a
// Step (from an observer callback, say) would change a phase's inputs
// halfway through it, so the guard turns that misuse into a
// deterministic panic instead.
func (s *Sim) failGuard() {
	if s.stepping {
		panic("netsim: fail/repair called during Step; inject failures and repairs between Steps")
	}
}

// FailLink makes the circuit u→v drop every transmission. The failure
// rows are allocated lazily — the outer slice on the first FailLink,
// each source's row on its first failed link — so fault-free
// simulations (the common case) skip the per-transmission lookup
// entirely and faulty large-N runs pay only for sources that actually
// failed; see failGuard for why the lazy allocation is safe mid-run.
// Call between Steps only.
func (s *Sim) FailLink(u, v int) {
	s.failGuard()
	if s.failedLink == nil {
		s.failedLink = make([][]bool, s.n)
	}
	row := s.failedLink[u]
	if row == nil {
		row = make([]bool, s.n)
		s.failedLink[u] = row
	}
	row[v] = true
	if s.obs != nil {
		s.obs.Emit(obs.Event{Slot: s.slot, Type: obs.EvFailLink, Src: u, Dst: v})
	}
}

// FailNode makes node u neither transmit nor forward. Everything already
// queued at u is purged as lost — counted in Stats.LostCells and the
// owning flows' Lost(), not silently vanished — so cell conservation
// (injected = delivered + dropped + lost + queued + in-flight) holds
// under node failures and Drained() stays reachable. Cells in flight
// toward u are lost when they land. Call between Steps only.
func (s *Sim) FailNode(u int) {
	s.failGuard()
	if s.failedNode[u] {
		return
	}
	s.failedNode[u] = true
	s.failedCount++
	// Only the node's backlog is purged: skip the queue scan when it is
	// empty, and stop it once every queued cell is out.
	purged := int64(0)
	if queued := s.backlog[u]; queued > 0 {
		row := s.voq[u]
		for v := range row {
			if purged == queued {
				break
			}
			q := &row[v]
			for {
				c, ok := q.pop(&s.pool)
				if !ok {
					break
				}
				if c.isFresh() {
					s.noteFreshConsumed(u, c.dst(v))
				}
				s.loseCells(c.flow, 1)
				purged++
			}
		}
	}
	s.backlog[u] -= purged
	s.totalBacklog -= purged
	s.deactivateSrc(u)
	if s.measuring {
		s.stats.LostCells += purged
	}
	if s.obs != nil {
		s.obs.Emit(obs.Event{Slot: s.slot, Type: obs.EvFailNode, Src: u, Dst: -1, Cells: purged})
	}
}

// RepairLink restores the circuit u→v after a FailLink. Repairing a link
// that is not failed is a no-op (no event), so scripted fault plans can
// overlap repairs without tracking exact state. The failedLink bitmap is
// kept once allocated: a repaired simulation has seen churn and may see
// more, so the fault-free fast path is not restored. Call between Steps
// only — the same contract as FailLink (see failGuard).
func (s *Sim) RepairLink(u, v int) {
	s.failGuard()
	if s.failedLink == nil || s.failedLink[u] == nil || !s.failedLink[u][v] {
		return
	}
	s.failedLink[u][v] = false
	if s.obs != nil {
		s.obs.Emit(obs.Event{Slot: s.slot, Type: obs.EvRepairLink, Src: u, Dst: v})
	}
}

// RepairNode restores node u after a FailNode. The node returns to
// service with empty queues — everything it held was purged (and
// accounted as lost) at failure time — so conservation holds trivially
// across fail→repair→fail churn: repair moves no cells, it only re-opens
// the transmit/forward/landing paths. Cells injected or routed through u
// after the repair flow normally. Repairing a live node is a no-op.
// Call between Steps only — the same contract as FailNode (see
// failGuard).
func (s *Sim) RepairNode(u int) {
	s.failGuard()
	if !s.failedNode[u] {
		return
	}
	s.failedNode[u] = false
	s.failedCount--
	if s.obs != nil {
		s.obs.Emit(obs.Event{Slot: s.slot, Type: obs.EvRepairNode, Src: u, Dst: -1})
	}
}

// InjectFlow source-routes a flow's cells and queues them at the source.
// Each cell's route is computed as if injected one slot later than the
// previous, rotating the load-balancing hop across circuits. The
// returned FlowState stays valid until the flow settles (every cell
// delivered or lost) and a later InjectFlow reuses its arena slot: read
// a settled flow before the next InjectFlow.
func (s *Sim) InjectFlow(src, dst, size int) *FlowState {
	if src == dst {
		panic("netsim: self flow")
	}
	if size < 1 {
		panic(fmt.Sprintf("netsim: flow of %d cells", size))
	}
	s.nextFlow++
	f, fi := s.newFlow()
	*f = FlowState{id: s.nextFlow, src: int32(src), dst: int32(dst), size: int32(size), arrival: s.slot, done: -1}
	if s.markPair(src, dst, pairSeen) {
		s.seenPairs++
	}
	if s.traceFlows {
		s.obs.Emit(obs.Event{Slot: s.slot, Type: obs.EvFlowStart, Flow: int64(f.id), Src: src, Dst: dst, Cells: int64(size)})
	}
	if s.failedNode[src] {
		// A failed source can never transmit: count the whole flow as
		// lost at injection instead of parking its cells in queues no
		// transmit phase will ever pop. Conservation holds and
		// Drained() stays reachable.
		s.loseCells(fi, int32(size))
		if s.measuring {
			s.stats.InjectedCells += int64(size)
			s.stats.LostCells += int64(size)
		}
		return f
	}
	s.fresh[src] += int64(size)
	if s.trackPairs {
		s.freshPair[src*s.n+dst] += int64(size)
	}
	for i := 0; i < size; i++ {
		p := s.router.RouteInto(s.routeBuf[:0], src, dst, int(s.slot)+i, s.rng)
		s.routeBuf = p
		var c cell
		c.flow = fi
		c.hops = uint8(len(p)-1) | freshBit
		for h := 2; h < len(p); h++ {
			c.rest[h-2] = int16(p[h])
		}
		s.enqueue(src, p[1], &c)
	}
	if s.measuring {
		s.stats.InjectedCells += int64(size)
	}
	return f
}

// noteFreshConsumed updates the fresh-cell accounting when a cell leaves
// its source (transmitted, dropped at injection, purged or delivered in
// place) and, under per-pair saturation, appends the pair to the
// deficit worklist, Sim.dirtyPairs.
func (s *Sim) noteFreshConsumed(u, dst int) {
	s.fresh[u]--
	if !s.trackPairs {
		return
	}
	pair := u*s.n + dst
	s.freshPair[pair]--
	if !s.dirtyMark[pair] {
		s.dirtyMark[pair] = true
		s.dirtyPairs = append(s.dirtyPairs, int32(pair))
	}
}

// enqueue places a cell into node u's VOQ for next, its next waypoint,
// dropping it if the queue is at its limit: the flow loses the cell and
// Stats counts the drop.
func (s *Sim) enqueue(u, next int, c *cell) {
	row := s.voq[u]
	if row == nil {
		row = s.voqRow(u)
	}
	q := &row[next]
	if s.cfg.QueueLimit > 0 && q.len() >= s.cfg.QueueLimit {
		if c.isFresh() {
			// Fresh cells are dropped only by serial calls: a cell
			// never returns to its source once transmitted.
			s.noteFreshConsumed(u, c.dst(next))
		}
		s.loseCells(c.flow, 1)
		if s.measuring {
			s.stats.DroppedCells++
		}
		return
	}
	q.push(&s.pool, c)
	s.backlog[u]++
	s.totalBacklog++
	if s.backlog[u] == 1 {
		s.activateSrc(u)
	}
}

// voqSlabMax bounds the eager contiguous-slab VOQ layout: up to this
// many nodes every row is a view into one n×n slab, so the saturated
// transmit and landing scans walk contiguous memory exactly as the
// pre-active-set flat table did. Above it, rows allocate lazily on a
// node's first queued cell — at N ≥ 2048 eager rows were the dominant
// allocation, and sparse large-N runs touch only a fraction of them.
// Same threshold as circuitSet's bitmap-vs-neighbor-list switch.
const voqSlabMax = 1024

// newVOQ returns the empty VOQ table for n nodes: slab-backed row
// views up to voqSlabMax (nothing is nil), lazily allocated rows
// above (nil row = node never queued).
func newVOQ(n int) [][]fifo {
	voq := make([][]fifo, n)
	if n <= voqSlabMax {
		slab := make([]fifo, n*n)
		for u := range voq {
			voq[u] = slab[u*n : (u+1)*n : (u+1)*n]
		}
	}
	return voq
}

// voqRow allocates node u's VOQ row on its first queued cell — the
// deliberate once-per-node slow path of the lazy large-N layout
// (small sims get slab rows from newVOQ and never reach it).
//
//sornlint:coldpath
func (s *Sim) voqRow(u int) []fifo {
	row := make([]fifo, s.n)
	s.voq[u] = row
	return row
}

// activateSrc adds u to the active-source list when its backlog
// becomes nonzero.
//
//sornlint:hotpath
func (s *Sim) activateSrc(u int) {
	if s.srcPos[u] >= 0 {
		return
	}
	s.srcPos[u] = int32(len(s.activeSrc))
	s.activeSrc = append(s.activeSrc, int32(u))
}

// deactivateSrc removes u from the active list by swap-removal.
// Serial contexts only (FailNode purges): the transmit phase removes
// its own drained sources inline.
func (s *Sim) deactivateSrc(u int) {
	pos := s.srcPos[u]
	if pos < 0 {
		return
	}
	list := s.activeSrc
	last := len(list) - 1
	moved := list[last]
	list[pos] = moved
	s.srcPos[moved] = pos // before clearing u: handles moved == u
	s.srcPos[u] = -1
	s.activeSrc = list[:last]
}

// clearActive empties the active list (Reconfigure rebuilds the queues
// from scratch and re-activates sources as it re-enqueues).
func (s *Sim) clearActive() {
	s.activeSrc = s.activeSrc[:0]
	for i := range s.srcPos {
		s.srcPos[i] = -1
	}
}

// phaseTimeSample is the phase wall-clock sampling interval: an
// instrumented run times its phases on one slot in phaseTimeSample.
// Phase profiles are per-call averages, so sampling keeps them unbiased
// while cutting the clock reads — the dominant observer cost on the hot
// path — to a fraction the ci.sh overhead gate's budget absorbs. Must
// be a power of two.
const phaseTimeSample = 16

// phaseTimed reports whether this slot's phases are wall-clock timed;
// true implies s.obs is non-nil.
//
//sornlint:obsguard
func (s *Sim) phaseTimed() bool {
	return s.obs != nil && s.slot&(phaseTimeSample-1) == 0
}

// Step advances the simulation by one slot: the landing phase, then the
// transmit phase.
func (s *Sim) Step() {
	s.stepping = true
	period := int64(s.sched.Period())
	for p := 0; p < s.planes; p++ {
		s.matchRows[p] = s.sched.Slots[(s.slot+s.offsets[p])%period]
	}
	timed := s.phaseTimed()
	transmit := (*Sim).transmitActive
	if s.reference != nil {
		transmit = s.reference
	}
	s.runPhase(obs.PhaseLand, timed, (*Sim).landPhase)
	// Landing emptied this slot's ring row; the transmit phase counts
	// the cells it writes into the row propSlots ahead, which with no
	// propagation delay is this one.
	s.ringCount[s.slot%int64(s.ringSlots)] = 0
	s.runPhase(obs.PhaseTransmit, timed, transmit)
	if s.om != nil {
		s.obsEndSlot()
	}
	s.slot++
	if s.measuring {
		s.stats.MeasuredSlots++
	}
	s.stepping = false
}

// FastForwardTo advances a quiescent simulator straight to slot target,
// returning how many slots were skipped (0 when nothing could be
// skipped). It is exact, not approximate: a quiescent Step — nothing
// queued, nothing in flight — moves no cells, draws no rng, and touches
// only the slot counter, the measurement window (MeasuredSlots plus one
// idle slot per live node-plane), and the per-slot observability hook,
// all of which are accounted here (see obsFastForward for the metric
// series). Schedule rows, plane offsets, and ring indices are derived
// from the slot counter at the next Step, so they need no adjustment.
// A non-quiescent or mid-Step simulator is left untouched (as is one
// running the tests' per-slot reference engine, see Sim.reference), so
// drivers call this unconditionally with the next slot at which
// anything is due: an arrival, a fault-plan event, a control epoch, a
// report boundary. Only wall-clock phase timings can tell the
// difference (skipped slots are never phase-timed); they are
// deliberately outside the determinism contract.
func (s *Sim) FastForwardTo(target int64) int64 {
	if s.reference != nil || s.stepping || target <= s.slot {
		return 0
	}
	if s.totalBacklog != 0 || s.InFlight() != 0 {
		return 0
	}
	skipped := target - s.slot
	if s.om != nil {
		s.obsFastForward(target)
	}
	if s.measuring {
		s.stats.MeasuredSlots += skipped
		// Every live node idles on all its planes in an empty slot —
		// the same accounting the per-slot transmit phase would do
		// (a validated schedule has no self-circuits to exclude).
		s.stats.IdleSlots += skipped * int64(s.n-s.failedCount) * int64(s.planes)
	}
	s.slot = target
	return skipped
}

// runPhase runs one slot phase, wall-clock-timed into the observer's
// accumulator for p on sampled slots. The readings never feed back into
// simulation state, so timing cannot perturb results; the
// uninstrumented path pays one branch. timed is only ever true when the
// observer exists (phaseTimed).
//
//sornlint:obsguarded
func (s *Sim) runPhase(p obs.Phase, timed bool, fn func(*Sim)) {
	if !timed {
		fn(s)
		return
	}
	t0 := s.obs.Clock()
	fn(s)
	s.obs.AddPhase(p, t0)
}

// landPhase lands everything in this slot's ring row, in (node, plane)
// order — the canonical landing order, which fixes the per-node rng
// draws and the sample streams. Each slot of every plane is a matching,
// so a row holds at most one cell per (node, plane) and the scan visits
// each entry once; a row with nothing arriving (ringCount 0, most steps
// of a draining or lightly loaded run) is skipped outright.
//
//sornlint:hotpath
func (s *Sim) landPhase() {
	cur := int(s.slot % int64(s.ringSlots))
	if s.ringCount[cur] == 0 {
		return
	}
	n := s.n
	off := cur * n * s.planes
	for v := 0; v < n; v++ {
		for p := 0; p < s.planes; p++ {
			if s.ringOcc[off] {
				s.ringOcc[off] = false
				s.land(v, &s.ringCells[off])
			}
			off++
		}
	}
}

// land processes a cell arriving at node v.
func (s *Sim) land(v int, c *cell) {
	if s.failedNode[v] {
		// v failed while the cell was in flight (transmit-time drops
		// cover only cells sent after the failure): lost on arrival.
		s.loseCells(c.flow, 1)
		if s.measuring {
			s.stats.LostCells++
		}
		return
	}
	c.idx++
	if int(c.idx) >= c.hopCount() {
		s.deliver(v, c)
		return
	}
	next := int(c.rest[c.idx-1])
	// After a reconfiguration, the cell's next circuit may no longer
	// exist; re-route it from its landing node.
	if !s.circuits.has(v, next) {
		s.rerouteFrom(v, c)
		return
	}
	s.enqueue(v, next, c)
}

// deliver counts a final-hop delivery at node v.
func (s *Sim) deliver(v int, c *cell) {
	st := &s.stats
	f := s.flow(c.flow)
	f.delivered++
	if s.measuring {
		st.DeliveredCells++
		// Deterministic Bernoulli sampling at rate 1/k. Counting
		// every k-th delivery phase-locks with a period-P schedule
		// whenever k and P share factors, systematically over- or
		// under-sampling some circuits; an independent coin flip per
		// delivery cannot. k == 1 skips the draw and samples all.
		if k := s.cfg.LatencySampleEvery; k > 0 && (k == 1 || s.latRngs[v].Float64() < s.sampleProb) {
			lat := float64(s.slot - f.arrival)
			st.LatencySlots.Add(lat)
			st.LatencyByHops[c.hopCount()].Add(lat)
		}
	}
	if f.delivered+f.lost == f.size {
		if f.lost == 0 {
			f.done = s.slot
			s.completed++
			if s.measuring {
				st.CompletedFlows++
				st.FCTSlots.Add(float64(s.slot - f.arrival))
			}
			if s.traceFlows {
				s.obs.Emit(obs.Event{Slot: s.slot, Type: obs.EvFlowFinish, Flow: int64(f.id),
					Src: int(f.src), Dst: int(f.dst), Cells: int64(f.size), Val: float64(s.slot - f.arrival)})
			}
		}
		s.settle(c.flow)
	}
}

// splitTransmitCells is the pool size, in cells (4 MiB), from which the
// saturated transmit pops a plane before it reads the popped cells.
const splitTransmitCells = 4 << 20 / cellBytes

// transmitPlaneSplit is the saturated transmit of plane p, in two
// passes. The first pops every listed source's head cell into s.popped
// and does the backlog bookkeeping without reading a cell; the second
// reads the cells for the fresh and loss accounting and the ring write,
// so the cache misses of a plane's cells overlap instead of each
// stalling the loop. The pointers stay valid: pops never write cell
// memory, and nothing pushes into the pool during the transmit phase.
// Each pass keeps source order, so every effect lands in the order the
// one-pass loop gives. It returns the cells popped, the cells written
// into the delay line and the sources drained.
//
//sornlint:hotpath
func (s *Sim) transmitPlaneSplit(p, landBase int, checkPos bool) (pops, landed int32, drained int) {
	st := &s.stats
	measuring := s.measuring
	row := s.matchRows[p]
	voq := s.voq
	backlog := s.backlog
	srcPos := s.srcPos
	failedNode := s.failedNode
	failedLink := s.failedLink
	hasFailedLink := failedLink != nil
	pool := &s.pool
	pending := s.popped
	m := 0
	for u, n := 0, s.n; u < n; u++ {
		if checkPos && srcPos[u] < 0 {
			continue
		}
		v := row[u]
		c, ok := voq[u][v].pop(pool)
		if !ok {
			continue
		}
		nb := backlog[u] - 1
		backlog[u] = nb
		if nb == 0 {
			drained++
		}
		pending[m] = poppedCell{c: c, u: int32(u), v: int32(v)}
		m++
	}
	for _, pc := range pending[:m] {
		c, u, v := pc.c, int(pc.u), int(pc.v)
		if c.isFresh() {
			s.noteFreshConsumed(u, c.dst(v))
			c.hops &^= freshBit
		}
		if failedNode[v] || (hasFailedLink && failedLink[u] != nil && failedLink[u][v]) {
			s.loseCells(c.flow, 1)
			if measuring {
				st.LostCells++
			}
			continue
		}
		if measuring {
			st.SentCells++
		}
		j := landBase + v*s.planes + p
		s.ringCells[j] = *c
		s.ringOcc[j] = true
		landed++
	}
	return int32(m), landed, drained
}

// transmitActive is the active-set transmit phase: instead of scanning
// every node per plane, it visits only the sources with queued cells,
// removing each from the list the moment it drains. Per-slot cost is
// proportional to the active sources, so the drained tail of an
// open-loop run — and every lightly loaded slot of a sparse one — costs
// O(cells moved), not O(n).
//
// Equivalence with a dense scan of every (source, plane) pair — the
// tests' reference engine: transmit order across nodes carries no
// state. Each active source still tries its planes in ascending order,
// and every other mutation is per-source (pops, backlog, fresh
// counters), commutative (counter and loss sums; the order in which
// losses settle flows only reorders the arena's free list, which no
// result reads), uniquely addressed (delay-line entries), or
// order-canonicalized downstream (the dirty-pair worklist is sorted
// before each drain). The idle total is computed by identity — live
// sources × planes − successful pops — rather than counted, which
// matches the dense count exactly because a validated schedule has no
// self-circuits. List order is irrelevant to all of it.
//
//sornlint:hotpath
func (s *Sim) transmitActive() {
	n := s.n
	st := &s.stats
	landRow := int((s.slot + s.propSlots) % int64(s.ringSlots))
	landBase := landRow * n * s.planes
	landed := int32(0)
	pops := int64(0)
	measuring := s.measuring
	planes := s.planes
	rows := s.matchRows
	backlog := s.backlog
	srcPos := s.srcPos
	failedNode := s.failedNode
	failedLink := s.failedLink
	hasFailedLink := failedLink != nil
	pool := &s.pool
	list := s.activeSrc
	live := int64(n - s.failedCount)
	if len(list)*2 >= n {
		// Saturated: most nodes are active, so the list buys nothing —
		// switch to a dense plane-major layout (hoisted match row, nodes
		// visited in address order) and skip the few inactive sources
		// via srcPos. Iteration layout carries no state (see above), so
		// this is purely a memory-access-pattern choice; sources that
		// drain are swept from the list after the scan instead of
		// swap-removed mid-iteration, which changes only list order —
		// never results.
		voq := s.voq
		// Full coverage means every node is active (failed nodes are
		// never listed), so the membership probe vanishes in the steady
		// saturated state.
		checkPos := len(list) != n
		drained := 0
		// A pool past splitTransmitCells is far larger than the cache,
		// so nearly every popped cell is a miss: transmitPlaneSplit pops
		// the whole plane before it reads a cell. A smaller pool's cells
		// mostly hit, and the split's scratch traffic costs more than it
		// hides, so the pool's size picks the loop.
		split := len(pool.cells) >= splitTransmitCells
		for p := 0; p < planes; p++ {
			if split {
				np, nl, nd := s.transmitPlaneSplit(p, landBase, checkPos)
				pops += int64(np)
				landed += nl
				drained += nd
				continue
			}
			row := rows[p]
			for u := 0; u < n; u++ {
				if checkPos && srcPos[u] < 0 {
					continue
				}
				v := row[u]
				c, ok := voq[u][v].pop(pool)
				if !ok {
					continue
				}
				pops++
				nb := backlog[u] - 1
				backlog[u] = nb
				if nb == 0 {
					drained++
				}
				if c.isFresh() {
					s.noteFreshConsumed(u, c.dst(v))
					c.hops &^= freshBit
				}
				if failedNode[v] || (hasFailedLink && failedLink[u] != nil && failedLink[u][v]) {
					s.loseCells(c.flow, 1)
					if measuring {
						st.LostCells++
					}
					continue
				}
				if measuring {
					st.SentCells++
				}
				j := landBase + v*s.planes + p
				s.ringCells[j] = *c
				s.ringOcc[j] = true
				landed++
			}
		}
		// Transmit only ever decreases backlog (landing already ran),
		// so the drain count taken during the scan is exact: in the
		// steady saturated state it is zero and the sweep is skipped.
		for k := 0; drained > 0 && k < len(list); {
			u := list[k]
			if backlog[u] == 0 {
				drained--
				last := len(list) - 1
				moved := list[last]
				list[k] = moved
				srcPos[moved] = int32(k)
				srcPos[u] = -1
				list = list[:last]
				continue
			}
			k++
		}
		s.activeSrc = list
		if measuring {
			st.IdleSlots += live*int64(planes) - pops
		}
		s.ringCount[landRow] += landed
		s.totalBacklog -= pops
		return
	}
	for k := 0; k < len(list); {
		u := int(list[k])
		// A failed node cannot be on the list — FailNode deactivates it
		// and purges its queues — so no liveness check is needed here.
		row := s.voq[u]
		var flRow []bool
		if hasFailedLink {
			flRow = failedLink[u]
		}
		for p := 0; p < planes; p++ {
			v := rows[p][u]
			c, ok := row[v].pop(pool)
			if !ok {
				continue
			}
			pops++
			backlog[u]--
			if c.isFresh() {
				s.noteFreshConsumed(u, c.dst(v))
				c.hops &^= freshBit
			}
			if failedNode[v] || (flRow != nil && flRow[v]) {
				s.loseCells(c.flow, 1)
				if measuring {
					st.LostCells++
				}
				continue
			}
			if measuring {
				st.SentCells++
			}
			j := landBase + v*s.planes + p
			s.ringCells[j] = *c
			s.ringOcc[j] = true
			landed++
		}
		if backlog[u] == 0 {
			// Drained: swap-remove without advancing k (the moved entry
			// now at k still needs its turn this slot).
			last := len(list) - 1
			moved := list[last]
			list[k] = moved
			srcPos[moved] = int32(k)
			srcPos[u] = -1
			list = list[:last]
			continue
		}
		k++
	}
	s.activeSrc = list
	if measuring {
		// Idle by identity: every live (source, plane) pair either
		// popped a cell or idled. pops counts transmit-time drops too —
		// the dense scan counts those as non-idle as well.
		st.IdleSlots += live*int64(planes) - pops
	}
	s.ringCount[landRow] += landed
	s.totalBacklog -= pops
}

// RunOpenLoop injects the flows arriving before until at their arrival
// slots and steps, fast-forwarding quiescent stretches, to slot until.
// It returns the flows not yet due (Arrival ≥ until), so a driver can
// act on the simulator between segments (fault events, control epochs,
// report windows); calls chained with nothing in between are
// bit-identical to one call. Flows must be sorted by arrival, none
// before the current slot. Only the due prefix is validated, once per
// flow over a chain; a bad flow returns an error and leaves the
// simulator untouched.
func (s *Sim) RunOpenLoop(flows []workload.Flow, until int64) (rest []workload.Flow, err error) {
	due := 0
	for last := s.slot; due < len(flows) && flows[due].Arrival < until; due++ {
		f := flows[due]
		if err := s.checkFlow(f); err != nil {
			return nil, err
		}
		if f.Arrival < last {
			return nil, fmt.Errorf("netsim: flow %d arrives at slot %d, before slot %d (flows must be sorted by arrival, none before the current slot %d)",
				f.ID, f.Arrival, last, s.slot)
		}
		last = f.Arrival
	}
	i := 0
	for s.slot < until {
		timed := s.phaseTimed()
		var t0 int64
		if timed {
			t0 = s.obs.Clock()
		}
		for i < due && flows[i].Arrival <= s.slot {
			f := flows[i]
			s.InjectFlow(f.Src, f.Dst, f.Size)
			i++
		}
		if timed {
			s.obs.AddPhase(obs.PhaseInject, t0)
		}
		s.Step()
		// Nothing can happen before the next arrival (or the horizon)
		// once the network drains; skip the empty slots in O(1).
		// FastForwardTo checks quiescence itself.
		next := until
		if i < due && flows[i].Arrival < next {
			next = flows[i].Arrival
		}
		s.FastForwardTo(next)
	}
	return flows[due:], nil
}

// checkFlow rejects a flow InjectFlow cannot carry: endpoints outside
// the network or equal, no cells, or a negative arrival slot.
func (s *Sim) checkFlow(f workload.Flow) error {
	switch {
	case f.Src < 0 || f.Src >= s.n || f.Dst < 0 || f.Dst >= s.n:
		return fmt.Errorf("netsim: flow %d from %d to %d leaves the %d-node network", f.ID, f.Src, f.Dst, s.n)
	case f.Src == f.Dst:
		return fmt.Errorf("netsim: flow %d is a self flow at node %d", f.ID, f.Src)
	case f.Size <= 0:
		return fmt.Errorf("netsim: flow %d has %d cells", f.ID, f.Size)
	case f.Arrival < 0:
		return fmt.Errorf("netsim: flow %d has negative arrival", f.ID)
	}
	return nil
}

// SaturationConfig drives a closed-loop saturation run: every node keeps
// at least TargetBacklog *fresh* (not yet transmitted) cells queued, with
// destinations drawn from the traffic matrix and sizes from the size
// distribution. Relayed cells queued at intermediate hops do not count
// toward the target, so sources model infinite backlogs and the
// bottleneck links stay busy. Delivered cells per node per slot during
// the measurement window is the paper's throughput r.
type SaturationConfig struct {
	TM            *workload.Matrix
	Size          workload.SizeDist
	TargetBacklog int64
	WarmupSlots   int64
	MeasureSlots  int64

	// PerPairBacklog, when positive, switches to per-pair saturation:
	// every (src, dst) pair with positive demand keeps at least this many
	// fresh cells queued (TargetBacklog is then ignored). This measures
	// the schedule's capacity for the *matrix* — all pairs backlogged —
	// rather than for one flow at a time, and is what Figure 2(f)'s
	// worst-case throughput means. Heavy-tailed size distributions
	// overshoot the target per pair; that only deepens queues.
	PerPairBacklog int64
}

// RunSaturated executes a saturation experiment and returns the stats.
// It refuses a simulator with a QueueLimit: the top-up loops inject
// until a source's fresh backlog reaches its target, and a full VOQ
// drops the very cells that would reach it, so they would never stop.
func (s *Sim) RunSaturated(sc SaturationConfig) (*Stats, error) {
	if s.cfg.QueueLimit > 0 {
		return nil, fmt.Errorf("netsim: saturation runs need unbounded queues, the simulator has QueueLimit %d", s.cfg.QueueLimit)
	}
	if err := sc.TM.Validate(); err != nil {
		return nil, err
	}
	if sc.TM.N != s.n {
		return nil, fmt.Errorf("netsim: matrix over %d nodes, sim over %d", sc.TM.N, s.n)
	}
	switch {
	case sc.TargetBacklog <= 0 && sc.PerPairBacklog <= 0:
		return nil, fmt.Errorf("netsim: invalid saturation config: TargetBacklog %d and PerPairBacklog %d, one must be positive",
			sc.TargetBacklog, sc.PerPairBacklog)
	case sc.WarmupSlots < 0:
		return nil, fmt.Errorf("netsim: invalid saturation config: WarmupSlots %d is negative", sc.WarmupSlots)
	case sc.MeasureSlots <= 0:
		return nil, fmt.Errorf("netsim: invalid saturation config: MeasureSlots %d must be positive", sc.MeasureSlots)
	}
	end := s.slot + sc.WarmupSlots + sc.MeasureSlots
	measureAt := s.slot + sc.WarmupSlots
	if sc.PerPairBacklog > 0 {
		return s.runSaturatedPerPair(sc, measureAt, end)
	}
	// Per-node saturation. The eligible sources are computed once up
	// front: RowSum is an O(n) scan and failures cannot change mid-run,
	// so re-checking both for every node every slot is pure overhead.
	active := make([]int, 0, s.n)
	for u := 0; u < s.n; u++ {
		if !s.failedNode[u] && sc.TM.RowSum(u) > 0 {
			active = append(active, u)
		}
	}
	for s.slot < end {
		if s.slot == measureAt {
			s.StartMeasuring()
		}
		timed := s.phaseTimed()
		var t0 int64
		if timed {
			t0 = s.obs.Clock()
		}
		for _, u := range active {
			for s.fresh[u] < sc.TargetBacklog {
				dst := sc.TM.SampleDest(u, s.rng)
				size := sc.Size.Sample(s.rng)
				if size <= 0 {
					return nil, errEmptyFlow(sc.Size, size)
				}
				s.InjectFlow(u, dst, size)
			}
		}
		if timed {
			s.obs.AddPhase(obs.PhaseInject, t0)
		}
		s.Step()
	}
	return &s.stats, nil
}

// errEmptyFlow reports a size draw of no cells. A saturation top-up
// loop injects until the source's fresh backlog reaches its target, so
// accepting one would inject empty flows forever.
func errEmptyFlow(d workload.SizeDist, size int) error {
	return fmt.Errorf("netsim: size distribution %s sampled %d cells", d.Name(), size)
}

// runSaturatedPerPair drives per-pair saturation with a deficit
// worklist: a pair is (re-)examined only when one of its fresh cells
// left the source since the last top-up — initially every eligible pair,
// afterwards whatever the transmit loop consumed. This replaces the
// O(n²)-per-slot scan over all pairs with work proportional to the
// number of cells actually transmitted.
func (s *Sim) runSaturatedPerPair(sc SaturationConfig, measureAt, end int64) (*Stats, error) {
	s.trackPairs = true
	defer func() { s.trackPairs = false }()
	if s.dirtyMark == nil {
		s.dirtyMark = make([]bool, s.n*s.n)
	}
	// freshPair is unmaintained outside per-pair runs (and unallocated
	// before the first one); rebuild it from the queues — every fresh
	// cell sits at its source, so only allocated rows can hold any.
	if s.freshPair == nil {
		s.freshPair = make([]int64, s.n*s.n)
	} else {
		clear(s.freshPair)
	}
	for u := 0; u < s.n; u++ {
		row := s.voq[u]
		if row == nil {
			continue
		}
		for v := range row {
			row[v].each(&s.pool, func(c *cell) {
				if c.isFresh() {
					s.freshPair[u*s.n+c.dst(v)]++
				}
			})
		}
	}
	for u := 0; u < s.n; u++ {
		if s.failedNode[u] {
			continue
		}
		for d := 0; d < s.n; d++ {
			if sc.TM.Rates[u][d] <= 0 || s.failedNode[d] {
				continue
			}
			pair := u*s.n + d
			if !s.dirtyMark[pair] {
				s.dirtyMark[pair] = true
				s.dirtyPairs = append(s.dirtyPairs, int32(pair))
			}
		}
	}
	for s.slot < end {
		if s.slot == measureAt {
			s.StartMeasuring()
		}
		timed := s.phaseTimed()
		var t0 int64
		if timed {
			t0 = s.obs.Clock()
		}
		// The worklist accumulates in transmit-iteration order, which is
		// a layout detail (plane-major or list order); sort the batch so
		// injection — and the rng draws it consumes — happens in
		// canonical pair order for every loop shape.
		slices.Sort(s.dirtyPairs)
		// Queues are unbounded here, so a top-up never drops a cell and
		// the worklist cannot grow while it drains.
		for _, p := range s.dirtyPairs {
			pair := int(p)
			s.dirtyMark[pair] = false
			u, d := pair/s.n, pair%s.n
			// A FailNode purge marks the failed node's pairs dirty as it
			// consumes their fresh cells; never top those back up.
			if s.failedNode[u] || s.failedNode[d] {
				continue
			}
			for s.freshPair[pair] < sc.PerPairBacklog {
				size := sc.Size.Sample(s.rng)
				if size <= 0 {
					return nil, errEmptyFlow(sc.Size, size)
				}
				s.InjectFlow(u, d, size)
			}
		}
		s.dirtyPairs = s.dirtyPairs[:0]
		if timed {
			s.obs.AddPhase(obs.PhaseInject, t0)
		}
		s.Step()
	}
	return &s.stats, nil
}

// Reconfigure swaps the schedule (and router) at a slot boundary and
// re-routes every queued cell from its current node under the new
// schedule — modeling the drain/re-route work of a semi-oblivious
// topology update (§5). In-flight cells land first and are re-routed on
// landing if their next circuit no longer exists.
func (s *Sim) Reconfigure(sched *matching.Schedule, router routing.Router) error {
	if err := s.checkReconfig(sched, router); err != nil {
		return err
	}
	if s.obs != nil {
		s.obs.Emit(obs.Event{Slot: s.slot, Type: obs.EvReconfigBegin, Src: -1, Dst: -1})
	}
	s.sched = sched
	s.router = router
	s.circuits = newCircuitSet(sched)
	s.offsets = planeOffsets(int64(sched.Period()), int64(s.planes))

	// Re-route queued cells: each keeps its flow identity but gets a
	// fresh path from its current node. In-flight cells are re-routed by
	// land() if their old next circuit disappeared. The active-source
	// lists are rebuilt as rerouteFrom re-enqueues.
	old := s.voq
	s.voq = s.spareVOQ
	if s.voq == nil {
		s.voq = newVOQ(s.n)
	}
	for i := range s.backlog {
		s.backlog[i] = 0
	}
	s.totalBacklog = 0
	s.clearActive()
	moved := int64(0)
	for u := 0; u < s.n; u++ {
		row := old[u]
		if row == nil {
			continue
		}
		// Re-enqueueing pushes into the pool being popped, which may
		// reuse the chunk a pop just freed: reroute a copy of the cell.
		for v := range row {
			q := &row[v]
			for {
				c, ok := q.pop(&s.pool)
				if !ok {
					break
				}
				cc := *c
				s.rerouteFrom(u, &cc)
				moved++
			}
			q.drop(&s.pool)
		}
	}
	// Every queue of the old table is now dropped to the empty state, so
	// it is the next Reconfigure's new table.
	s.spareVOQ = old
	if s.obs != nil {
		s.obs.Emit(obs.Event{Slot: s.slot, Type: obs.EvReconfigCommit, Src: -1, Dst: -1, Cells: moved})
	}
	return nil
}

// checkReconfig rejects what Reconfigure cannot take: a missing or
// invalid schedule, one over a different node count, or a router that
// checkRouter rejects. Reconfigure and ReconfigureGraceful both call it
// before they change any state.
func (s *Sim) checkReconfig(sched *matching.Schedule, router routing.Router) error {
	if sched == nil || router == nil {
		return fmt.Errorf("netsim: schedule and router are required")
	}
	if err := sched.Validate(); err != nil {
		return err
	}
	if sched.N != s.n {
		return fmt.Errorf("netsim: new schedule over %d nodes, sim over %d", sched.N, s.n)
	}
	return checkRouter(sched, router)
}

// checkRouter rejects a router over a different node count than the
// schedule, or one whose routes exceed the waypoints a cell holds.
func checkRouter(sched *matching.Schedule, r routing.Router) error {
	if r.N() != sched.N {
		return fmt.Errorf("netsim: router %s over %d nodes, schedule over %d", r.Name(), r.N(), sched.N)
	}
	if r.MaxHops() > maxWaypoints {
		return fmt.Errorf("netsim: router %s routes over %d hops, cells hold at most %d", r.Name(), r.MaxHops(), maxWaypoints)
	}
	return nil
}

// rerouteFrom recomputes a cell's remaining path from node u. Reroutes
// draw from u's own rng stream, so a landing-time reroute leaves the
// workload stream alone.
func (s *Sim) rerouteFrom(u int, c *cell) {
	dst := s.flow(c.flow).dst
	if int32(u) == dst {
		// A cell queued at its destination as a relay waypoint (e.g. an
		// ORN digit path crossing dst mid-route) is delivered in place
		// rather than re-routed. If it never left its source the fresh
		// accounting still charges it as queued there; consume it
		// before it disappears into the delivery counters.
		if c.isFresh() {
			s.noteFreshConsumed(u, int(dst))
		}
		done := cell{flow: c.flow, hops: 1, idx: 1}
		s.deliver(u, &done)
		return
	}
	p := s.router.RouteInto(s.routeBuf[:0], u, int(dst), int(s.slot), &s.nodeRngs[u])
	s.routeBuf = p
	nc := cell{flow: c.flow, hops: uint8(len(p)-1) | c.hops&freshBit}
	for h := 2; h < len(p); h++ {
		nc.rest[h-2] = int16(p[h])
	}
	s.enqueue(u, p[1], &nc)
}

// FlowsCompleted returns how many injected flows have delivered every
// cell.
func (s *Sim) FlowsCompleted() int { return s.completed }

// AffectedPairs returns the fraction of distinct (src, dst) pairs with
// injected traffic that lost at least one cell — the packet-level blast
// radius of the injected failures.
func (s *Sim) AffectedPairs() float64 {
	if s.seenPairs == 0 {
		return 0
	}
	return float64(s.hitPairs) / float64(s.seenPairs)
}

// ReconfigureGraceful performs the §5 update protocol: identify the
// circuits the new schedule removes, keep running until the queues on
// those circuits drain (or maxDrainSlots elapse), then swap. It returns
// the number of slots spent draining and the number of cells that had to
// be force-re-routed because the drain window expired. A SORN q
// rebalance (fixed neighbor superset) drains in zero slots.
func (s *Sim) ReconfigureGraceful(sched *matching.Schedule, router routing.Router, maxDrainSlots int64) (drainSlots, rerouted int64, err error) {
	if err := s.checkReconfig(sched, router); err != nil {
		return 0, 0, err
	}
	newCS := newCircuitSet(sched)
	removedBacklog := func() int64 {
		total := int64(0)
		for u := 0; u < s.n; u++ {
			row := s.voq[u]
			if row == nil {
				continue
			}
			// Only circuits the old schedule opens can hold queued
			// cells, so walking the old neighbor lists covers every
			// removed-circuit queue in O(n·degree), not O(n²).
			for _, v := range s.circuits.nbr[u] {
				if !newCS.has(u, int(v)) {
					total += int64(row[v].len())
				}
			}
		}
		return total
	}
	for drainSlots = 0; drainSlots < maxDrainSlots; drainSlots++ {
		if removedBacklog() == 0 {
			break
		}
		s.Step()
	}
	stranded := removedBacklog()
	if s.obs != nil {
		s.obs.Emit(obs.Event{Slot: s.slot, Type: obs.EvReconfigDrain, Src: -1, Dst: -1,
			Val: float64(drainSlots), Cells: stranded})
	}
	if err := s.Reconfigure(sched, router); err != nil {
		return drainSlots, 0, err
	}
	return drainSlots, stranded, nil
}

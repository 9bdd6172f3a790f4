package netsim

// The dense reference engine: the per-slot transmit algorithm the
// active-set engine replaced, kept as the executable specification it
// must match bit for bit. Its transmit phase scans every (source, plane)
// pair each slot, and it never fast-forwards; landing is the one
// production ring-row scan (landShard), which both engines share.
// Production Step reaches transmitShardDense only through Sim.reference,
// which only this package's tests set.

// useDense switches s to the dense reference engine (or back to the
// active engine). Call it right after New or Reset, before the first
// Step: the active engine's source lists are not maintained by the
// dense transmit body, so switching mid-run is unsupported.
func useDense(s *Sim, dense bool) {
	s.reference = nil
	if dense {
		s.reference = (*Sim).transmitShardDense
	}
}

// newEngine builds a simulator on the dense reference engine when dense
// is set, on the production active-set engine otherwise.
func newEngine(cfg Config, dense bool) (*Sim, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	useDense(s, dense)
	return s, nil
}

// transmitShardDense pops one cell per plane per source node in
// [lo, hi) onto the node's active circuits, writing each sent cell into
// the delay line slot each destination owns — the reference engine's
// transmit phase, scanning every (source, plane) pair.
//
// The loop is plane-major so the dominant single-plane case is one flat
// pass over the match row. Unlike the landing phase, transmit order
// across nodes carries no state: every mutation is per-source (pops,
// backlog, fresh counters — a node's pops still occur in ascending
// plane order), commutative (counter and loss sums), uniquely addressed
// (delay-line entries), or order-canonicalized downstream (the
// dirty-pair worklist is sorted before each drain), so any iteration
// layout yields the same result for every worker count.
func (s *Sim) transmitShardDense(lo, hi int, sh *shard) {
	n := s.n
	st := sh.st
	landBase := int((s.slot+s.propSlots)%int64(s.ringSlots)) * n * s.planes
	landed := int32(0)
	idle := int64(0)
	dBacklog := int64(0)
	measuring := s.measuring
	planes := s.planes
	rows := s.matchRows
	voq := s.voq
	backlog := s.backlog
	failedNode := s.failedNode
	failedLink := s.failedLink
	hasFailedLink := failedLink != nil
	for p := 0; p < planes; p++ {
		row := rows[p]
		for u := lo; u < hi; u++ {
			if failedNode[u] {
				continue
			}
			v := row[u]
			vq := voq[u]
			if vq == nil {
				// Never queued anything: idle on this circuit (a
				// validated schedule has no self-circuits, so u != v).
				idle++
				continue
			}
			c, ok := vq[v].pop(&sh.pool)
			if !ok {
				if u != v {
					idle++
				}
				continue
			}
			backlog[u]--
			dBacklog--
			if c.isFresh() {
				s.noteFreshConsumed(sh, u, c.dst(v))
				c.hops &^= freshBit
			}
			if failedNode[v] || (hasFailedLink && failedLink[u] != nil && failedLink[u][v]) {
				sh.losses = append(sh.losses, flowLoss{flow: c.flow, cells: 1})
				if measuring {
					st.LostCells++
				}
				continue
			}
			if measuring {
				st.SentCells++
			}
			// Within a slot each plane's circuits form a matching, so
			// (v, p) identifies this arrival's slot uniquely: no other
			// shard can write it.
			j := landBase + v*s.planes + p
			s.ringCells[j] = *c
			s.ringOcc[j] = true
			landed++
		}
	}
	if measuring {
		st.IdleSlots += idle
	}
	sh.landed = landed
	sh.dBacklog += dBacklog
}

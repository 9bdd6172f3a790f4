// Package fixture exercises shardsafety: code reachable from a
// //sornlint:shardphase body may only write staged per-shard state.
package fixture

// stage is the per-shard staging area.
//
//sornlint:staged
type stage struct {
	count int64
	buf   []int64
}

type engine struct {
	total   int64
	flushed int64
	done    bool
	staged  []int64 //sornlint:staged
}

var hits int

// landPhase is a worker-phase body: the root of the reachability walk.
//
//sornlint:shardphase
func (e *engine) landPhase(sh *stage) {
	e.total++ // want:shardsafety
	e.staged[0]++
	sh.count++
	e.helper(sh)
}

// helper is reachable from the phase body, so the same discipline
// applies transitively — also to the branch that tests the shard for
// nil: no branch makes shard-phase code serial.
func (e *engine) helper(sh *stage) {
	hits++ // want:shardsafety
	if sh == nil {
		e.flushed++ // want:shardsafety
		return
	}
	sh.buf = append(sh.buf, e.total)
	e.done = true // want:shardsafety
}

// outside is not reachable from any phase, so its writes are fine.
func (e *engine) outside() {
	e.total++
	hits++
}

// Package fixture is the shardsafety clean case: staged state and the
// drain path are legal.
package fixture

// stage is the per-shard staging area.
//
//sornlint:staged
type stage struct {
	count int64
}

type engine struct {
	total  int64
	staged []int64 //sornlint:staged
}

// landPhase stages its writes and defers shared-state updates to the
// drain path.
//
//sornlint:shardphase
func (e *engine) landPhase(sh *stage) {
	e.staged[0]++
	sh.count++
	e.note(sh)
	e.flush(sh)
}

// note stages through the shard it is given.
func (e *engine) note(sh *stage) {
	sh.count++
}

// flush is the drain path: the reachability walk stops here, and its
// shared-state writes are the point.
//
//sornlint:drain
func (e *engine) flush(sh *stage) {
	e.total += sh.count
	sh.count = 0
}

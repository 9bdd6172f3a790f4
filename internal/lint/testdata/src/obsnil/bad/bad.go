// Package fixture exercises obsnil: unguarded Observer calls must be
// flagged.
package fixture

import "repro/internal/obs"

type sim struct {
	o *obs.Observer
}

// unguarded calls the observer with no nil evidence at all.
func (s *sim) unguarded(slot int64) {
	s.o.Emit(obs.Event{Slot: slot}) // want:obsnil
}

// wrongBranch has a guard, but the call sits where it proves nothing.
func (s *sim) wrongBranch(slot int64) {
	if s.o == nil {
		s.o.Emit(obs.Event{Slot: slot}) // want:obsnil
	}
	s.o.Emit(obs.Event{Slot: slot}) // want:obsnil
}

// escaped creates a closure inside a guard: the closure may run long
// after the guard, so it starts unguarded.
func (s *sim) escaped(slot int64) func() {
	if s.o != nil {
		return func() {
			s.o.Emit(obs.Event{Slot: slot}) // want:obsnil
		}
	}
	return nil
}

package sched

// RaceEnabled reports whether the race detector is compiled in, for the
// external test package's allocation budgets.
func RaceEnabled() bool { return raceEnabled }

// DrainFreeStates empties the free list, so the next Run starts from a
// state of its own whatever ran earlier in the test binary.
func DrainFreeStates() {
	select {
	case <-freeStates:
	default:
	}
}

package simclock

import "time"

// Group is a set of per-shard virtual clocks with a rendezvous ("epoch
// barrier") operation, the clock layer of the sharded discrete-event core.
//
// The model: independent switches never interact except at control-plane
// boundaries, so each shard free-runs its own Virtual clock through the
// data-plane events of an epoch. At every control-plane interaction — probe
// fan-outs, FlowMod batches, TE re-allocation diffs — the shards quiesce and
// the harness calls Align, which advances every clock to the group frontier
// (the maximum instant any shard reached). After Align all shards observe the
// same "now", so timeout expiry, RTT stamps, and latency draws in the next
// phase are independent of how the shards interleaved in wall time: a run
// with one shard and a run with N shards produce bit-identical virtual
// timelines (the TestScaleShardedDifferential gate in internal/scale).
//
// Group methods themselves are not synchronisation points: the caller must
// ensure shards are parked (e.g. behind a sync.WaitGroup) before calling
// Frontier, Lag, or Align from the coordinating goroutine. The per-clock
// cache-line padding on Virtual keeps the shards' free-running Sleep traffic
// from false-sharing while they run.
type Group struct {
	clocks []Virtual
}

// NewGroup returns n virtual clocks, all positioned at Epoch, laid out
// contiguously so shard i's clock is one pointer indirection away.
func NewGroup(n int) *Group {
	g := &Group{clocks: make([]Virtual, n)}
	for i := range g.clocks {
		g.clocks[i].base = Epoch
	}
	return g
}

// Clock returns shard i's clock.
func (g *Group) Clock(i int) *Virtual { return &g.clocks[i] }

// Frontier returns the latest instant any clock in the group has reached.
func (g *Group) Frontier() time.Time {
	var front time.Time
	for i := range g.clocks {
		if now := g.clocks[i].Now(); now.After(front) {
			front = now
		}
	}
	return front
}

// Lag returns the spread between the fastest and slowest clocks — how far
// the shards drifted apart during the last free-running phase. Harnesses
// report the maximum observed lag as a shard-balance diagnostic.
func (g *Group) Lag() time.Duration {
	if len(g.clocks) == 0 {
		return 0
	}
	front := g.Frontier()
	lag := time.Duration(0)
	for i := range g.clocks {
		if d := front.Sub(g.clocks[i].Now()); d > lag {
			lag = d
		}
	}
	return lag
}

// Align advances every clock to the group frontier and returns it — the
// epoch barrier. Virtual.Sleep ignores non-positive durations, so the
// frontier clock itself is untouched and no clock ever moves backwards.
func (g *Group) Align() time.Time {
	front := g.Frontier()
	g.AlignTo(front)
	return front
}

// AlignTo advances every clock that is behind t up to exactly t. Clocks at
// or past t are untouched.
func (g *Group) AlignTo(t time.Time) {
	for i := range g.clocks {
		c := &g.clocks[i]
		c.Sleep(t.Sub(c.Now()))
	}
}

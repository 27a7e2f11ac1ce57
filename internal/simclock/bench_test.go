package simclock

import (
	"sync/atomic"
	"testing"
	"time"
)

// unpaddedClock replicates Virtual's pre-padding layout (base + bare atomic
// offset, 32 bytes) so the benchmark pair below shows the false-sharing
// cost side by side: a contiguous slice of these packs two clocks per cache
// line, and concurrent shards ping-pong the line between cores.
type unpaddedClock struct {
	base time.Time
	off  atomic.Int64
}

func (c *unpaddedClock) Now() time.Time { return c.base.Add(time.Duration(c.off.Load())) }
func (c *unpaddedClock) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	c.off.Add(int64(d))
}

// BenchmarkVirtualNowParallel exercises the sharded-core clock pattern: each
// worker owns one clock in a contiguous slice and alternates Sleep/Now, the
// exact traffic the scale harness generates. Compare against the Unpadded
// variant: on multi-core hardware the padded layout is several times faster
// because neighbouring shards no longer invalidate each other's line (on a
// single-core runner the two benches read the same — there is no one to
// false-share with).
func BenchmarkVirtualNowParallel(b *testing.B) {
	g := NewGroup(16)
	var next atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		c := g.Clock(int(next.Add(1)-1) % len(g.clocks))
		for pb.Next() {
			c.Sleep(time.Microsecond)
			_ = c.Now()
		}
	})
}

func BenchmarkVirtualNowParallelUnpadded(b *testing.B) {
	clocks := make([]unpaddedClock, 16)
	for i := range clocks {
		clocks[i].base = Epoch
	}
	var next atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		c := &clocks[int(next.Add(1)-1)%len(clocks)]
		for pb.Next() {
			c.Sleep(time.Microsecond)
			_ = c.Now()
		}
	})
}

// Package simclock provides clock abstractions used throughout the Tango
// simulator. Experiments run against a virtual clock so that the latency
// models of emulated switches advance simulated time instead of sleeping,
// which keeps the full benchmark suite deterministic and fast. The real
// clock is used only when an emulated switch is exposed over a live TCP
// OpenFlow channel and must behave like a physical device.
package simclock

import (
	"runtime"
	"sync/atomic"
	"time"
)

// Clock is the minimal time source used by the switch emulator and the
// probing engine. Implementations must be safe for concurrent use.
type Clock interface {
	// Now returns the current instant on this clock.
	Now() time.Time
	// Sleep advances this clock by d. A virtual clock returns immediately
	// after moving its notion of "now"; a real clock blocks.
	Sleep(d time.Duration)
}

// cacheLine is the assumed CPU cache-line size. 64 bytes is correct for
// every amd64 and most arm64 parts; being wrong only costs padding.
const cacheLine = 64

// Virtual is a manually advanced clock. The zero value is ready to use and
// starts at the zero time.Time; most callers prefer NewVirtual, which starts
// at a fixed, recognisable epoch.
//
// The clock is a base instant plus an atomically advanced offset: the switch
// emulator reads and advances it on every simulated packet, so Now/Sleep must
// not take a lock of their own (the ~50 ns mutex pair showed up as several
// percent of the probing benchmarks).
//
// The offset word is padded out to its own cache line. Clocks advance
// concurrently on separate goroutines — each simulated fleet member and each
// parallel inference cell of the experiments owns one, allocated on its own —
// and the padding keeps one clock's Sleep traffic from invalidating a
// neighbouring allocation's cached line however the allocator packs them.
type Virtual struct {
	base time.Time
	_    [cacheLine - 24]byte // time.Time is 24 bytes; start off on a fresh line
	off  atomic.Int64         // nanoseconds since base
	_    [cacheLine - 8]byte  // keep the next struct off this line too
}

// Epoch is the starting instant of clocks returned by NewVirtual. The exact
// value is arbitrary; it is fixed so that traces and goldens are stable.
var Epoch = time.Date(2014, time.December, 2, 0, 0, 0, 0, time.UTC)

// NewVirtual returns a virtual clock positioned at Epoch.
func NewVirtual() *Virtual {
	return &Virtual{base: Epoch}
}

// Now returns the current virtual instant.
func (v *Virtual) Now() time.Time {
	return v.base.Add(time.Duration(v.off.Load()))
}

// Sleep advances the virtual clock by d without blocking. Negative durations
// are ignored so that a clock can never run backwards.
func (v *Virtual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	v.off.Add(int64(d))
}

// Real is a Clock backed by the wall clock. Scale stretches or compresses
// sleeps: a Scale of 0.001 makes a simulated 5 s installation take 5 ms of
// wall time, which keeps live demos responsive while preserving relative
// magnitudes. A zero Scale means 1.0.
type Real struct {
	// Scale multiplies every Sleep duration. Zero means no scaling.
	Scale float64
}

// Now returns the wall-clock time.
func (r *Real) Now() time.Time { return time.Now() }

// spinWindow is the last stretch of a Real sleep that is spun out rather
// than slept. A bare time.Sleep can overshoot by about a millisecond, which
// at a compressed Scale is larger than the latencies being emulated.
const spinWindow = 2 * time.Millisecond

// Sleep blocks for d scaled by r.Scale. It sleeps until spinWindow before
// its deadline, then polls the wall clock, yielding between polls, so it
// wakes within microseconds of the deadline instead of a timer tick late.
func (r *Real) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	if r.Scale > 0 {
		d = time.Duration(float64(d) * r.Scale)
	}
	deadline := time.Now().Add(d)
	if d > spinWindow {
		time.Sleep(d - spinWindow)
	}
	for time.Now().Before(deadline) {
		runtime.Gosched()
	}
}

package simclock

import (
	"sync"
	"testing"
	"time"
	"unsafe"
)

func TestGroupClocksStartAtEpoch(t *testing.T) {
	g := NewGroup(4)
	if len(g.clocks) != 4 {
		t.Fatalf("Len = %d", len(g.clocks))
	}
	for i := 0; i < len(g.clocks); i++ {
		if now := g.Clock(i).Now(); !now.Equal(Epoch) {
			t.Fatalf("clock %d starts at %v, want %v", i, now, Epoch)
		}
	}
	if lag := g.Lag(); lag != 0 {
		t.Fatalf("fresh group lag = %v", lag)
	}
}

func TestGroupFrontierAndAlign(t *testing.T) {
	g := NewGroup(3)
	g.Clock(0).Sleep(5 * time.Second)
	g.Clock(1).Sleep(2 * time.Second)
	// Clock 2 stays at Epoch.

	want := Epoch.Add(5 * time.Second)
	if front := g.Frontier(); !front.Equal(want) {
		t.Fatalf("Frontier = %v, want %v", front, want)
	}
	if lag := g.Lag(); lag != 5*time.Second {
		t.Fatalf("Lag = %v, want 5s", lag)
	}

	front := g.Align()
	if !front.Equal(want) {
		t.Fatalf("Align returned %v, want %v", front, want)
	}
	for i := 0; i < len(g.clocks); i++ {
		if now := g.Clock(i).Now(); !now.Equal(want) {
			t.Fatalf("clock %d after Align = %v, want %v", i, now, want)
		}
	}
	if lag := g.Lag(); lag != 0 {
		t.Fatalf("lag after Align = %v", lag)
	}
}

func TestGroupAlignToNeverRewinds(t *testing.T) {
	g := NewGroup(2)
	g.Clock(0).Sleep(10 * time.Second)
	g.AlignTo(Epoch.Add(3 * time.Second))
	if now := g.Clock(0).Now(); !now.Equal(Epoch.Add(10 * time.Second)) {
		t.Fatalf("AlignTo rewound the fast clock to %v", now)
	}
	if now := g.Clock(1).Now(); !now.Equal(Epoch.Add(3 * time.Second)) {
		t.Fatalf("AlignTo left the slow clock at %v", now)
	}
}

// TestGroupAlignDeterministic replays the same per-shard advance schedule
// serially and concurrently: after the barrier the frontier and every clock
// reading must be bit-identical, which is the property the scale harness'
// differential gate builds on.
func TestGroupAlignDeterministic(t *testing.T) {
	run := func(concurrent bool) time.Time {
		g := NewGroup(8)
		var wg sync.WaitGroup
		for i := 0; i < len(g.clocks); i++ {
			step := func(i int) {
				c := g.Clock(i)
				for j := 0; j < 1000; j++ {
					c.Sleep(time.Duration(i+1) * time.Microsecond)
				}
			}
			if concurrent {
				wg.Add(1)
				go func(i int) { defer wg.Done(); step(i) }(i)
			} else {
				step(i)
			}
		}
		wg.Wait()
		return g.Align()
	}
	serial, parallel := run(false), run(true)
	if !serial.Equal(parallel) {
		t.Fatalf("frontier differs: serial %v, parallel %v", serial, parallel)
	}
}

// TestVirtualOffsetPadding pins the false-sharing fix: each clock's atomic
// offset must sit on its own cache line, so adjacent clocks in a Group's
// contiguous slice never share one.
func TestVirtualOffsetPadding(t *testing.T) {
	var v Virtual
	offOffset := unsafe.Offsetof(v.off)
	if offOffset%cacheLine != 0 {
		t.Fatalf("off at offset %d, not cache-line aligned", offOffset)
	}
	if size := unsafe.Sizeof(v); size%cacheLine != 0 {
		t.Fatalf("Virtual size %d is not a cache-line multiple", size)
	}
}

package simclock

import (
	"math"
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"
)

func TestVirtualStartsAtEpoch(t *testing.T) {
	v := NewVirtual()
	if !v.Now().Equal(Epoch) {
		t.Fatalf("Now = %v, want %v", v.Now(), Epoch)
	}
}

func TestVirtualSleepAdvances(t *testing.T) {
	v := NewVirtual()
	v.Sleep(5 * time.Second)
	if got := v.Now().Sub(Epoch); got != 5*time.Second {
		t.Fatalf("elapsed = %v", got)
	}
	v.Sleep(time.Second)
	if got := v.Now().Sub(Epoch); got != 6*time.Second {
		t.Fatalf("elapsed after second sleep = %v", got)
	}
}

func TestVirtualNeverGoesBackwards(t *testing.T) {
	v := NewVirtual()
	v.Sleep(time.Second)
	v.Sleep(-10 * time.Second)
	v.Sleep(0)
	if got := v.Now().Sub(Epoch); got != time.Second {
		t.Fatalf("negative sleep moved the clock: %v", got)
	}
}

func TestVirtualConcurrentSleeps(t *testing.T) {
	v := NewVirtual()
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				v.Sleep(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if got := v.Now().Sub(Epoch); got != 5*time.Second {
		t.Fatalf("concurrent sleeps lost time: %v", got)
	}
}

func TestZeroValueVirtualUsable(t *testing.T) {
	var v Virtual
	v.Sleep(time.Minute)
	if got := v.Now(); !got.Equal(time.Time{}.Add(time.Minute)) {
		t.Fatalf("zero-value clock: %v", got)
	}
}

// TestVirtualOffsetPadding pins the clock's layout: the atomic offset sits
// on its own cache line and the struct is a whole number of lines, so clocks
// advanced concurrently on separate goroutines (fleet members, parallel
// inference cells) never share a line with a neighbouring allocation.
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

func TestRealScaledSleep(t *testing.T) {
	r := &Real{Scale: 1e-6}
	start := time.Now()
	r.Sleep(10 * time.Second) // scaled to 10µs
	if elapsed := time.Since(start); elapsed > 250*time.Millisecond {
		t.Fatalf("scaled sleep took %v", elapsed)
	}
	r.Sleep(-time.Second) // must not panic or block
	if r.Now().IsZero() {
		t.Fatal("Real.Now returned zero time")
	}
}

// TestRealSleepKeepsDeadline bounds how late a Real sleep wakes. A bare
// time.Sleep overshoots by 0.4–1.1 ms for short sleeps, which at a
// compressed Scale swamps the latencies being emulated; the spun-out tail
// wakes within microseconds. What the test bounds is Sleep's own share of
// the overshoot: each Sleep is paired with a control that busy-waits to the
// same deadline, measured right after it, so host preemption, which delays
// both alike, shows in the control's tail too and is subtracted. Preemption
// comes in bursts that can still land on one kind more than the other, so
// the test passes on the best of a few rounds and logs each.
func TestRealSleepKeepsDeadline(t *testing.T) {
	const bound = 250 * time.Microsecond
	spin := func(d time.Duration) {
		for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		}
	}
	r := &Real{}
	best := time.Duration(math.MaxInt64)
	for round := 0; round < 3 && best > bound; round++ {
		var over, control []time.Duration
		for _, d := range []time.Duration{time.Microsecond, 20 * time.Microsecond, 200 * time.Microsecond, time.Millisecond, 3 * time.Millisecond} {
			for i := 0; i < 40; i++ {
				start := time.Now()
				r.Sleep(d)
				late := time.Since(start) - d
				if late < 0 {
					t.Fatalf("Sleep(%v) woke %v early", d, -late)
				}
				over = append(over, late)
				start = time.Now()
				spin(d)
				control = append(control, time.Since(start)-d)
			}
		}
		slices.Sort(over)
		slices.Sort(control)
		p99, c99 := over[len(over)*99/100], control[len(control)*99/100]
		share := max(p99-c99, 0)
		t.Logf("round %d, overshoot over %d sleeps: p50 %v, p99 %v, max %v; busy-wait control p99 %v; Sleep's share %v",
			round, len(over), over[len(over)/2], p99, over[len(over)-1], c99, share)
		best = min(best, share)
	}
	if best > bound {
		t.Fatalf("Sleep's share of the p99 overshoot is %v in the best round, want ≤ %v", best, bound)
	}
}

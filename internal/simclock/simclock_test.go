package simclock

import (
	"sync"
	"testing"
	"time"
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

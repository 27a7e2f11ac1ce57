package parallel

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachVisitsEveryIndexOnce(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{
		{0, 4}, {-3, 4}, {1, 1}, {1, 8}, {5, 8}, {100, 1}, {100, 8}, {100, 0}, {100, -1},
	} {
		visits := make([]atomic.Int32, max(tc.n, 0))
		ForEach(tc.n, tc.workers, func(i int) { visits[i].Add(1) })
		for i := range visits {
			if got := visits[i].Load(); got != 1 {
				t.Errorf("n=%d workers=%d: index %d visited %d times", tc.n, tc.workers, i, got)
			}
		}
	}
}

// One worker is the serial reference: index order, on the caller — the
// unsynchronised append below is a data race under -race otherwise.
func TestForEachOneWorkerIsSerial(t *testing.T) {
	var order []int
	ForEach(50, 1, func(i int) { order = append(order, i) })
	for i, got := range order {
		if got != i {
			t.Fatalf("call %d ran index %d", i, got)
		}
	}
	if len(order) != 50 {
		t.Fatalf("%d calls, want 50", len(order))
	}
}

func TestForEachBoundsConcurrency(t *testing.T) {
	const workers = 3
	var running, peak atomic.Int32
	ForEach(64, workers, func(int) {
		now := running.Add(1)
		for {
			p := peak.Load()
			if now <= p || peak.CompareAndSwap(p, now) {
				break
			}
		}
		time.Sleep(100 * time.Microsecond)
		running.Add(-1)
	})
	if got := peak.Load(); got > workers {
		t.Fatalf("%d jobs ran at once, bound is %d", got, workers)
	}
}

// ForEach returns once its last job has: a helper that starts after that
// claims nothing. The caller reuses the jobs' buffer the moment ForEach
// returns, so a job still running then, or a late helper calling fn, is a
// data race -race reports (CI runs this -race -count=20).
func TestForEachLateHelperClaimsNothing(t *testing.T) {
	buf := make([]int, 16)
	for round := 1; round <= 2000; round++ {
		n := 1 + round%len(buf)
		ForEach(n, 8, func(i int) { buf[i] = round })
		for i := range buf[:n] {
			if buf[i] != round {
				t.Fatalf("round %d: slot %d holds %d after ForEach returned", round, i, buf[i])
			}
			buf[i] = 0
		}
	}
}

// A warm ForEach allocates nothing: its run comes back from the free list
// and a helper's go statement takes the method value bound when the run was
// made. Run with GOMAXPROCS 1, as AllocsPerRun does, the caller finishes
// every job before a helper starts, so without the cap on helpers out they
// pile up, each holding a run the next call cannot have.
func TestForEachAllocatesNothing(t *testing.T) {
	var sink [32]int
	fn := func(i int) { sink[i]++ }
	for _, workers := range []int{1, 2, 8} {
		got := testing.AllocsPerRun(2000, func() { ForEach(len(sink), workers, fn) })
		if got != 0 {
			t.Errorf("workers=%d: %v allocations per ForEach, want 0", workers, got)
		}
	}
}

// Runs are recycled while late helpers are still out, from several callers
// at once. Every call's fn records its own call id: each index must run
// exactly once, under its own call's fn, and never after its ForEach
// returned. A run handed to the next call while a helper still holds it
// lets that helper claim the new call's indexes against the old count or
// fn; the owner writes then race with the caller's reads, which -race
// reports (CI runs this -race -count=20).
func TestForEachRecycledRunsStayPrivate(t *testing.T) {
	const callers, calls, maxN = 4, 1000, 24
	done := make(chan struct{})
	for c := 0; c < callers; c++ {
		go func() {
			defer func() { done <- struct{}{} }()
			var owner [maxN]int
			var returned atomic.Int64
			for call := 1; call <= calls; call++ {
				n := 1 + (call*7+c)%maxN
				ForEach(n, 8, func(i int) {
					if returned.Load() >= int64(call) {
						t.Errorf("caller %d: call %d ran index %d after it returned", c, call, i)
					}
					if owner[i] != 0 {
						t.Errorf("caller %d: call %d ran index %d twice", c, call, i)
					}
					owner[i] = call
				})
				returned.Store(int64(call))
				for i := range owner {
					want := call
					if i >= n {
						want = 0
					}
					if owner[i] != want {
						t.Errorf("caller %d: call %d left index %d = %d, want %d", c, call, i, owner[i], want)
						return
					}
					owner[i] = 0
				}
			}
		}()
	}
	for c := 0; c < callers; c++ {
		<-done
	}
}

// A panic early in a long run leaves almost every index unclaimed; the
// failing goroutine must write those jobs off, or the caller's wait for
// them never ends.
func TestForEachPanicCreditsUnclaimedTail(t *testing.T) {
	const n = 1 << 20
	for _, workers := range []int{1, 2, 8} {
		done := make(chan any, 1)
		go func() {
			defer func() { done <- recover() }()
			ForEach(n, workers, func(i int) {
				if i == 3 || i == 5 {
					panicAt(i)
				}
			})
		}()
		select {
		case got := <-done:
			if pe, ok := got.(*PanicError); !ok || pe.Index != 3 {
				t.Errorf("workers=%d: recovered %v, want the *PanicError of job 3", workers, got)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("workers=%d: ForEach still waiting 10s after job 3 panicked", workers)
		}
	}
}

// goroutinesSettle waits for the goroutine count to fall back to base.
func goroutinesSettle(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines left behind: %d before, %d after", base, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestForEachReraisesLowestPanicOnCaller(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 8} {
		base := runtime.NumGoroutine()
		var ran atomic.Int32
		got := func() (v any) {
			defer func() { v = recover() }()
			ForEach(200, workers, func(i int) {
				ran.Add(1)
				// 40 is the lowest panicking index; the ones above it that
				// also get to run must not displace it.
				if i >= 40 && i%20 == 0 {
					panicAt(boom)
				}
			})
			return nil
		}()
		pe, ok := got.(*PanicError)
		if !ok {
			t.Fatalf("workers=%d: recovered %v, want *PanicError", workers, got)
		}
		if pe.Index != 40 {
			t.Errorf("workers=%d: index %d, want 40 (the lowest)", workers, pe.Index)
		}
		if pe.Value != boom {
			t.Errorf("workers=%d: value %v, want the original", workers, pe.Value)
		}
		if !strings.Contains(string(pe.Stack), "panicAt") {
			t.Errorf("workers=%d: stack does not reach the panicking frame:\n%s", workers, pe.Stack)
		}
		if !strings.Contains(pe.Error(), "job 40") || !strings.Contains(pe.Error(), "boom") {
			t.Errorf("workers=%d: message %q names neither index nor value", workers, pe.Error())
		}
		if n := ran.Load(); n == 200 {
			t.Errorf("workers=%d: all 200 jobs ran; a panic must stop further claims", workers)
		}
		goroutinesSettle(t, base)
	}
}

//go:noinline
func panicAt(v any) { panic(v) }

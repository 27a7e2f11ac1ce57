package sched_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"tango/internal/core/sched"
	"tango/internal/experiments"
)

// BenchmarkRunPlan is the runner alone at sched_plan's shape: Run drains a
// 32-switch, 6,400-request, 40-level graph with Tango on the cost-model
// executor, so dag, the round loop and pattern do all the work. Building
// the graph is untimed; eight seeds rotate as in the benchmark workload.
func BenchmarkRunPlan(b *testing.B) {
	const switches, requests, levels, graphs = 32, 6400, 40, 8
	_, db := experiments.SchedWorkload(switches, 1, 1, 0)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g, _ := experiments.SchedWorkload(switches, requests, levels, int64(i%graphs))
				b.StartTimer()
				res, err := sched.Run(g, &sched.Tango{DB: db, SortPriorities: true}, sched.CardExecutor{DB: db}, sched.RunOptions{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if res.Rounds != levels || g.Len() != 0 {
					b.Fatalf("%d rounds, %d requests left; want %d and 0", res.Rounds, g.Len(), levels)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*requests), "ns/request")
		})
	}
}

// TestRunAllocBudget holds a warm Run at sched_plan's shape to a budget
// that does not grow with its rounds: parallel.ForEach takes its shared
// state from a free list and starts a helper without allocating. The GCs
// forced before the measured Run are what a sync.Pool of states would not
// survive. The graph is built outside the count, and under the race
// detector the count is not held (it drops sync.Pool Puts, and
// CardExecutor's estimator comes from one).
func TestRunAllocBudget(t *testing.T) {
	const switches, requests, levels = 32, 6400, 40
	// budget is what a warm Run allocates: its result and round closure
	// (2), what the graph's RemoveBatch grows (8) and the executor's pooled
	// estimators refilling after the GCs (≈ 6), one more set of them when
	// a helper executes on a second processor. Measured on 2 cores: 16 at
	// one worker and at two.
	const budget = 32
	_, db := experiments.SchedWorkload(switches, 1, 1, 0)
	run := func(workers int) uint64 {
		g, _ := experiments.SchedWorkload(switches, requests, levels, 1)
		tg := &sched.Tango{DB: db, SortPriorities: true}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := sched.Run(g, tg, sched.CardExecutor{DB: db}, sched.RunOptions{Workers: workers})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rounds != levels || g.Len() != 0 {
			t.Fatalf("%d rounds, %d requests left; want %d and 0", res.Rounds, g.Len(), levels)
		}
		return after.Mallocs - before.Mallocs
	}
	warmGoroutineCache()
	for _, workers := range []int{1, 2} {
		// The warm run must hand its state to the measured one, not to a
		// state some earlier test left on the free list.
		sched.DrainFreeStates()
		run(workers)
		// Twice: a sync.Pool keeps what it holds through one GC.
		runtime.GC()
		runtime.GC()
		n := run(workers)
		t.Logf("workers=%d: %d allocations in a warm Run of %d rounds", workers, n, levels)
		if n > budget && !sched.RaceEnabled() {
			t.Errorf("workers=%d: a warm Run allocated %d times, want at most %d", workers, n, budget)
		}
	}
}

// warmGoroutineCache starts and ends enough goroutines to stock the
// runtime's free goroutine descriptors. An exited goroutine's descriptor
// stays on its processor's free list, which passes descriptors on to the
// shared list only once it holds 64. Until then a helper that exits on
// another processor than the one starting the next helper leaves that one
// without a descriptor, and the go statement makes one: up to one a round
// in a young process (up to 30 in a two-worker Run, measured),
// none once the process has made enough, since descriptors are never freed.
func warmGoroutineCache() {
	var wg sync.WaitGroup
	for range 256 {
		wg.Add(1)
		go wg.Done()
	}
	wg.Wait()
}

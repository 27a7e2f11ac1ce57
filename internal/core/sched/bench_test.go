package sched_test

import (
	"fmt"
	"runtime"
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

// TestRunAllocBudget holds a warm Run at sched_plan's shape to what its
// fan-out costs: at most two allocations per round — parallel.ForEach's
// shared state and, at two workers, its helper goroutine — plus perRun for
// the run itself. A warm run on the same graph leaves a state whose
// per-switch jobs have grown; the GCs forced before the measured Run are
// what a sync.Pool of states would not survive. The graph is built outside
// the count, and under the race detector the count is not held (it drops
// sync.Pool Puts, and CardExecutor's estimator comes from one).
func TestRunAllocBudget(t *testing.T) {
	const switches, requests, levels = 32, 6400, 40
	// perRun is what a warm Run allocates beside its rounds: its result and
	// round closure (2), what the graph's RemoveBatch grows (8), the
	// executor's pooled estimators refilling after the GCs (≈ 6), and the
	// goroutine descriptors the runtime makes when helpers pile up
	// unscheduled on a busy host (rarely, up to about one per round).
	// Measured on 2 cores: 56 at one worker, 96 at two (137 once, on a
	// loaded host: 96 plus one descriptor for each of the 40 rounds).
	const perRun = 64
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
		if budget := uint64(2*levels + perRun); n > budget && !sched.RaceEnabled() {
			t.Errorf("workers=%d: a warm Run allocated %d times, want at most %d", workers, n, budget)
		}
	}
}

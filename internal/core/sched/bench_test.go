package sched_test

import (
	"fmt"
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

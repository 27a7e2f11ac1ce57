package sched

import (
	"fmt"
	"math/rand"
	"testing"

	"tango/internal/core/pattern"
)

// TestPlanAndExecuteAllocFree gates the round loop's two per-batch calls: a
// warmed Tango.plan — with and without the ExistingHigher oracle — on a
// scratch its caller keeps, as each of Run's jobs does, and a warmed
// CardExecutor.Execute allocate nothing, on a batch the size sched_plan's
// rounds produce and on a big one. Execute's estimator still comes from a
// sync.Pool in pattern (as the scratch of Tango.Order and EstimateBatch
// comes from Tango.scratch), and a sync.Pool drops a quarter of all Puts
// under the race detector, so there the calls run (for the detector's sake)
// but the count is not held to zero.
func TestPlanAndExecuteAllocFree(t *testing.T) {
	db := testDB("s")
	// 40 resident rules at priority 3000, a closure like experiments.ExistingHigherFor.
	higher := func(_ string, p uint16) int {
		if p < 3000 {
			return 40
		}
		return 0
	}
	for _, size := range []int{5, 512} {
		rng := rand.New(rand.NewSource(int64(size)))
		reqs := make([]*Request, size)
		for i := range reqs {
			reqs[i] = &Request{Switch: "s", Op: pattern.OpKind(i % 3), FlowID: uint32(i),
				Priority: uint16(1000 + rng.Intn(4000)), HasPriority: true}
		}
		ops := appendOps(nil, reqs)
		dst := make([]*Request, 0, size)
		var (
			scoreBuf [12]float64
			sc       orderScratch
		)
		card, _ := db.Score("s")
		for _, tg := range []*Tango{
			{DB: db, SortPriorities: true},
			{DB: db, SortPriorities: true, ExistingHigher: higher},
		} {
			name := fmt.Sprintf("plan/%d/oracle=%v", size, tg.ExistingHigher != nil)
			requireAllocFree(t, name, func() { tg.plan(&sc, card, "s", reqs, dst[:0], scoreBuf[:0]) })
		}
		exec := CardExecutor{DB: db}
		requireAllocFree(t, fmt.Sprintf("execute/%d", size), func() {
			if _, err := exec.Execute("s", ops); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// raceEnabled is set by race_test.go when the race detector is compiled in.
var raceEnabled bool

func requireAllocFree(t *testing.T, name string, f func()) {
	t.Helper()
	f() // warm the pooled buffers
	if n := testing.AllocsPerRun(100, f); n != 0 && !raceEnabled {
		t.Errorf("%s: %v allocs per call, want 0", name, n)
	}
}

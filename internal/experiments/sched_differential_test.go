package experiments

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"tango/internal/core/pattern"
	"tango/internal/core/sched"
	"tango/internal/dag"
	"tango/internal/parallel"
	"tango/internal/telemetry"
)

// schedRunOutput captures everything a sched.Run produces: the result, the
// run's full metric snapshot, and its trace events (wall timestamps zeroed —
// they are the only legitimately nondeterministic field).
type schedRunOutput struct {
	res    *sched.RunResult
	snap   *telemetry.Snapshot
	events []telemetry.SpanEvent
}

// runSchedOnce executes one scheduling run against a fresh registry and
// tracer. build must return a fresh graph and scheduler each call (Tango
// memoizes per-instance state; graphs are consumed by the run).
func runSchedOnce(t *testing.T, g *sched.Graph, s sched.Scheduler, exec sched.Executor, opts sched.RunOptions) schedRunOutput {
	t.Helper()
	out, err := schedOnce(g, s, exec, opts)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// schedOnce is runSchedOnce for a goroutine other than the test's.
func schedOnce(g *sched.Graph, s sched.Scheduler, exec sched.Executor, opts sched.RunOptions) (schedRunOutput, error) {
	reg := telemetry.NewRegistry()
	tr := telemetry.NewTracer(nil)
	opts.Metrics = reg
	opts.Tracer = tr
	switch tg := s.(type) {
	case *sched.Tango:
		tg.Metrics = reg
	case viaOrder:
		tg.Metrics = reg
	}
	res, err := sched.Run(g, s, exec, opts)
	if err != nil {
		return schedRunOutput{}, err
	}
	snap := reg.Snapshot()
	snap.TakenAt = time.Time{}
	events := tr.Events()
	for i := range events {
		events[i].Wall = time.Time{}
	}
	return schedRunOutput{res: res, snap: snap, events: events}, nil
}

// diffOutputs fails the test if two runs differ anywhere: result fields,
// every counter/gauge/histogram (including quantiles, whose sample ring is
// order-sensitive — the sharpest detector of nondeterministic aggregation),
// or any trace span.
func diffOutputs(t *testing.T, label string, serial, parallel schedRunOutput) {
	t.Helper()
	if !reflect.DeepEqual(serial.res, parallel.res) {
		t.Errorf("%s: RunResult diverged:\nserial:   %+v\nparallel: %+v", label, serial.res, parallel.res)
	}
	if !reflect.DeepEqual(serial.snap, parallel.snap) {
		t.Errorf("%s: metric snapshots diverged:\nserial:   %+v\nparallel: %+v", label, serial.snap, parallel.snap)
	}
	if !reflect.DeepEqual(serial.events, parallel.events) {
		t.Errorf("%s: trace events diverged (%d vs %d events)", label, len(serial.events), len(parallel.events))
	}
}

// TestRunParallelDifferential is the randomized gate for the parallel
// scheduler core: across seeds and the full option matrix (greedy vs
// non-greedy batching, concurrent cross-switch extension on/off, Tango vs
// Dionysus), a run with a worker pool must be bit-for-bit identical to the
// serial path — RunResult, metrics, and traces. CI runs it under -race,
// which also exercises the worker pool for data races.
func TestRunParallelDifferential(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		_, db := SchedWorkload(8, 400, 10, seed)
		exec := sched.CardExecutor{DB: db}
		newTango := func() sched.Scheduler {
			return &sched.Tango{DB: db, SortPriorities: true}
		}
		newDionysus := func() sched.Scheduler { return sched.Dionysus{} }
		schedulers := []struct {
			name string
			make func() sched.Scheduler
		}{
			{"tango", newTango},
			{"dionysus", newDionysus},
		}
		options := []struct {
			name string
			opts sched.RunOptions
		}{
			{"greedy", sched.RunOptions{}},
			{"nongreedy", sched.RunOptions{NonGreedy: true}},
			{"concurrent", sched.RunOptions{Concurrent: true, GuardTime: 2 * time.Millisecond}},
			{"nongreedy+concurrent", sched.RunOptions{NonGreedy: true, Concurrent: true, GuardTime: 2 * time.Millisecond}},
		}
		for _, sc := range schedulers {
			for _, oc := range options {
				label := fmt.Sprintf("seed=%d/%s/%s", seed, sc.name, oc.name)
				serialOpts := oc.opts
				serialOpts.Workers = 1
				parallelOpts := oc.opts
				parallelOpts.Workers = 8
				gs, _ := SchedWorkload(8, 400, 10, seed)
				serial := runSchedOnce(t, gs, sc.make(), exec, serialOpts)
				gp, _ := SchedWorkload(8, 400, 10, seed)
				parallel := runSchedOnce(t, gp, sc.make(), exec, parallelOpts)
				diffOutputs(t, label, serial, parallel)
			}
		}
	}
}

// TestRunParallelDifferentialEngines repeats the serial-vs-parallel check
// with real emulated engines (stateful switches on virtual clocks) on the
// hardware-testbed scenarios, covering the EngineExecutor path.
func TestRunParallelDifferentialEngines(t *testing.T) {
	profiles := TestbedProfiles()
	db := BuildScoreDB(profiles)
	scenarios := []struct {
		name  string
		build func() (*sched.Graph, map[string]PreloadSpec)
	}{
		{"LF", func() (*sched.Graph, map[string]PreloadSpec) { return LFScenario(120, 3) }},
		{"TE", func() (*sched.Graph, map[string]PreloadSpec) { return TEScenario(300, 2, 1, 1, 3) }},
	}
	for _, sc := range scenarios {
		run := func(workers int) schedRunOutput {
			g, preload := sc.build()
			ex := ExecutorFor(profiles, preload, 5)
			s := &sched.Tango{DB: db, SortPriorities: true, ExistingHigher: ExistingHigherFor(preload)}
			return runSchedOnce(t, g, s, ex, sched.RunOptions{Workers: workers})
		}
		diffOutputs(t, sc.name, run(1), run(6))
	}
}

// TestSchedGolden pins makespan and round count for one Tango and one
// Dionysus run over the seeded benchmark workload — at the differentials'
// size and at the sched_plan workload's own dimensions — so both scheduler
// behaviour and its determinism are regression-gated, and asserts the
// paper's Figure 10 claim on each: Tango is never slower than Dionysus.
// These values change only if scheduling semantics change — not with worker
// count, allocation strategy, or frontier implementation.
func TestSchedGolden(t *testing.T) {
	for _, c := range []struct {
		switches, total, levels int
		seed                    int64
		tangoMakespan           time.Duration
		tangoRounds             int
		dioMakespan             time.Duration
		dioRounds               int
	}{
		{8, 800, 10, 7, 349625 * time.Microsecond, 10, 362344250 * time.Nanosecond, 10},
		{32, 6400, 40, 11, 1012363 * time.Microsecond, 40, 1022931750 * time.Nanosecond, 40},
	} {
		run := func(s sched.Scheduler) *sched.RunResult {
			g, db := SchedWorkload(c.switches, c.total, c.levels, c.seed)
			res, err := sched.Run(g, s, sched.CardExecutor{DB: db}, sched.RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		_, db := SchedWorkload(c.switches, c.total, c.levels, c.seed)
		tango := run(&sched.Tango{DB: db, SortPriorities: true})
		dio := run(sched.Dionysus{})
		label := fmt.Sprintf("%dx%dx%d seed %d", c.switches, c.total, c.levels, c.seed)
		t.Logf("%s: tango makespan=%v rounds=%d; dionysus makespan=%v rounds=%d",
			label, tango.Makespan, tango.Rounds, dio.Makespan, dio.Rounds)
		if tango.Makespan != c.tangoMakespan || tango.Rounds != c.tangoRounds {
			t.Errorf("%s: tango run: makespan=%v rounds=%d, want %v/%d", label, tango.Makespan, tango.Rounds, c.tangoMakespan, c.tangoRounds)
		}
		if dio.Makespan != c.dioMakespan || dio.Rounds != c.dioRounds {
			t.Errorf("%s: dionysus run: makespan=%v rounds=%d, want %v/%d", label, dio.Makespan, dio.Rounds, c.dioMakespan, c.dioRounds)
		}
		if tango.Makespan > dio.Makespan {
			t.Errorf("%s: tango makespan %v exceeds dionysus %v (dio/tango ratio below 1)", label, tango.Makespan, dio.Makespan)
		}
	}
}

// viaOrder hides a Tango from sched.Run, which then orders each batch with
// Tango.Order: the card is looked up on every call, on a scratch from the
// Tango's pool. At one worker its output is the direct path's, byte for
// byte.
type viaOrder struct{ *sched.Tango }

// panicOn is a card executor with a bug on one switch.
type panicOn struct {
	sched.CardExecutor
	sw string
}

func (x panicOn) Execute(sw string, ops []pattern.Op) (time.Duration, error) {
	if sw == x.sw {
		panic("executor bug on " + sw)
	}
	return x.CardExecutor.Execute(sw, ops)
}

// TestRunStateReuse: sched.Run keeps its per-switch state from one run for
// the next, so here one process drains, in turn, graph A; a run that fails
// on a missing engine; one whose batch panics; one on switches A never
// uses; A after one of its cards was replaced, which must price with the
// new card; and A again, which must reproduce the first run's result,
// snapshot and spans. Then two goroutines drain A at once (CI runs this
// under -race).
func TestRunStateReuse(t *testing.T) {
	const switches, requests, levels, seed = 8, 400, 10, 4
	_, db := SchedWorkload(switches, requests, levels, seed)
	runA := func(s sched.Scheduler, workers int) schedRunOutput {
		g, _ := SchedWorkload(switches, requests, levels, seed)
		return runSchedOnce(t, g, s, sched.CardExecutor{DB: db}, sched.RunOptions{Workers: workers})
	}
	newTango := func() *sched.Tango { return &sched.Tango{DB: db, SortPriorities: true} }
	first := runA(newTango(), 2)

	// Cards for the switches A never uses.
	other := pattern.NewDB()
	for i := 0; i < 4; i++ {
		other.PutScore(&pattern.ScoreCard{SwitchName: fmt.Sprintf("other-%d", i),
			AddSamePriority: time.Millisecond, AddNewPriority: 2 * time.Millisecond, ShiftPerEntry: 10 * time.Microsecond,
			Mod: 3 * time.Millisecond, Del: time.Millisecond, TypeSwitch: 100 * time.Microsecond})
	}

	g := sched.NewGraph()
	g.AddNode(&sched.Request{Switch: "ghost", Op: pattern.OpAdd, FlowID: 1})
	if _, err := sched.Run(g, newTango(), sched.EngineExecutor{}, sched.RunOptions{}); err == nil {
		t.Fatal("a switch with no engine ran")
	}

	g = sched.NewGraph()
	for i := 0; i < 4; i++ {
		g.AddNode(&sched.Request{Switch: fmt.Sprintf("other-%d", i), Op: pattern.OpMod, FlowID: 1, Priority: 1, HasPriority: true})
	}
	func() {
		defer func() {
			if _, ok := recover().(*parallel.PanicError); !ok {
				t.Fatal("the panicking batch did not reach the caller")
			}
		}()
		_, _ = sched.Run(g, &sched.Tango{DB: other}, panicOn{sched.CardExecutor{DB: other}, "other-2"}, sched.RunOptions{Workers: 2})
	}()

	g = sched.NewGraph()
	var prev []dag.NodeID
	for i := 0; i < 48; i++ {
		id := g.AddNode(&sched.Request{Switch: fmt.Sprintf("other-%d", i%4), Op: pattern.OpKind(i % 3),
			FlowID: uint32(i), Priority: uint16(100 + i%7), HasPriority: true})
		if len(prev) >= 4 {
			_ = g.AddEdge(prev[len(prev)-4], id)
		}
		prev = append(prev, id)
	}
	runSchedOnce(t, g, &sched.Tango{DB: other, SortPriorities: true}, sched.CardExecutor{DB: other}, sched.RunOptions{Workers: 2})

	const replaced = "bench-03"
	orig, _ := db.Score(replaced)
	card := *orig
	card.AddNewPriority += time.Millisecond
	card.ShiftPerEntry *= 3
	db.PutScore(&card)
	want := runA(viaOrder{newTango()}, 1)
	got := runA(newTango(), 2)
	diffOutputs(t, "A with "+replaced+"'s card replaced", want, got)
	if reflect.DeepEqual(got.snap, first.snap) {
		t.Fatalf("replacing %s's card changed nothing", replaced)
	}
	db.PutScore(orig)

	// These runs came one after another, so each took the one idle state
	// the run before it gave back: A again runs on what all of them left.
	diffOutputs(t, "A again", first, runA(newTango(), 2))

	var (
		wg   sync.WaitGroup
		outs [2]schedRunOutput
		errs [2]error
	)
	for i := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g, _ := SchedWorkload(switches, requests, levels, seed)
			outs[i], errs[i] = schedOnce(g, newTango(), sched.CardExecutor{DB: db}, sched.RunOptions{Workers: 2})
		}()
	}
	wg.Wait()
	for i := range outs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		diffOutputs(t, fmt.Sprintf("A on goroutine %d of 2", i), first, outs[i])
	}
}

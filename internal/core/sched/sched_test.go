package sched

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"tango/internal/core/infer"
	"tango/internal/core/pattern"
	"tango/internal/core/probe"
	"tango/internal/dag"
	"tango/internal/parallel"
	"tango/internal/switchsim"
	"tango/internal/telemetry"
)

// testCard returns a hardware-like score card.
func testCard(name string) *pattern.ScoreCard {
	return &pattern.ScoreCard{
		SwitchName:      name,
		AddSamePriority: 400 * time.Microsecond,
		AddNewPriority:  900 * time.Microsecond,
		ShiftPerEntry:   14 * time.Microsecond,
		Mod:             6 * time.Millisecond,
		Del:             2 * time.Millisecond,
	}
}

func testDB(switches ...string) *pattern.DB {
	db := pattern.NewDB()
	for _, s := range switches {
		db.PutScore(testCard(s))
	}
	return db
}

// mixedGraph builds a single-switch graph of nAdd adds (descending input
// priorities, worst case), nMod mods, nDel dels, all independent.
func mixedGraph(sw string, nAdd, nMod, nDel int) *Graph {
	g := NewGraph()
	for i := 0; i < nAdd; i++ {
		g.AddNode(&Request{Switch: sw, Op: pattern.OpAdd, FlowID: uint32(1000 + i),
			Priority: uint16(5000 - i), HasPriority: true})
	}
	for i := 0; i < nMod; i++ {
		g.AddNode(&Request{Switch: sw, Op: pattern.OpMod, FlowID: uint32(i), Priority: 100, HasPriority: true})
	}
	for i := 0; i < nDel; i++ {
		g.AddNode(&Request{Switch: sw, Op: pattern.OpDel, FlowID: uint32(nMod + i), Priority: 100, HasPriority: true})
	}
	return g
}

// hwEngine builds an engine on a Switch #1 style device preloaded with
// rules [0, nPre) at priority 100 so mods and dels have targets.
func hwEngine(t *testing.T, nPre int) *probe.Engine {
	t.Helper()
	s := switchsim.New(switchsim.Switch1(), switchsim.WithSeed(3))
	e := probe.NewEngine(probe.SimDevice{S: s})
	for i := 0; i < nPre; i++ {
		if err := e.Install(uint32(i), 100); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func TestTangoOrderGroupsAndSorts(t *testing.T) {
	tg := &Tango{DB: testDB("s1"), SortPriorities: true}
	reqs := []*Request{
		{Switch: "s1", Op: pattern.OpAdd, Priority: 30, HasPriority: true},
		{Switch: "s1", Op: pattern.OpDel, Priority: 10, HasPriority: true},
		{Switch: "s1", Op: pattern.OpAdd, Priority: 10, HasPriority: true},
		{Switch: "s1", Op: pattern.OpMod, Priority: 20, HasPriority: true},
		{Switch: "s1", Op: pattern.OpAdd, Priority: 20, HasPriority: true},
	}
	got := tg.Order("s1", reqs, nil, nil)
	if len(got) != 5 {
		t.Fatalf("len = %d", len(got))
	}
	// Adds must come out ascending by priority and contiguous.
	var addPrios []uint16
	for _, r := range got {
		if r.Op == pattern.OpAdd {
			addPrios = append(addPrios, r.Priority)
		}
	}
	if len(addPrios) != 3 || addPrios[0] != 10 || addPrios[1] != 20 || addPrios[2] != 30 {
		t.Fatalf("add priorities = %v", addPrios)
	}
}

func TestTangoFallbackWithoutCard(t *testing.T) {
	tg := &Tango{}
	reqs := []*Request{
		{Op: pattern.OpAdd, Priority: 5, HasPriority: true},
		{Op: pattern.OpDel},
		{Op: pattern.OpMod},
	}
	got := tg.Order("unknown", reqs, nil, nil)
	if got[0].Op != pattern.OpDel || got[1].Op != pattern.OpMod || got[2].Op != pattern.OpAdd {
		t.Fatalf("fallback order: %v %v %v", got[0].Op, got[1].Op, got[2].Op)
	}
}

func TestDionysusCriticalPathOrder(t *testing.T) {
	g := NewGraph()
	// a -> b -> c (chain), d isolated. a has the longest path.
	a := g.AddNode(&Request{Switch: "s", Op: pattern.OpAdd, FlowID: 1})
	b := g.AddNode(&Request{Switch: "s", Op: pattern.OpAdd, FlowID: 2})
	c := g.AddNode(&Request{Switch: "s", Op: pattern.OpAdd, FlowID: 3})
	d := g.AddNode(&Request{Switch: "s", Op: pattern.OpAdd, FlowID: 4})
	if err := g.AddEdge(a, b); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(b, c); err != nil {
		t.Fatal(err)
	}
	reqs := []*Request{g.Payload(d), g.Payload(a)}
	got := Dionysus{}.Order("s", reqs, []dag.NodeID{d, a}, g)
	if got[0].FlowID != 1 {
		t.Fatalf("critical-path node not first: %+v", got[0])
	}
}

func TestRunDrainsRespectingDependencies(t *testing.T) {
	g := NewGraph()
	a := g.AddNode(&Request{Switch: "s1", Op: pattern.OpAdd, FlowID: 1, Priority: 10, HasPriority: true})
	b := g.AddNode(&Request{Switch: "s2", Op: pattern.OpAdd, FlowID: 2, Priority: 10, HasPriority: true})
	if err := g.AddEdge(a, b); err != nil {
		t.Fatal(err)
	}
	db := testDB("s1", "s2")
	res, err := Run(g, &Tango{DB: db}, CardExecutor{DB: db}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 2 {
		t.Fatalf("rounds = %d, want 2", res.Rounds)
	}
	if g.Len() != 0 {
		t.Fatal("graph not drained")
	}
}

func TestRunParallelMakespan(t *testing.T) {
	// Two independent switches: makespan is the max, not the sum.
	g := NewGraph()
	for i := 0; i < 10; i++ {
		g.AddNode(&Request{Switch: "s1", Op: pattern.OpMod, FlowID: uint32(i), Priority: 1, HasPriority: true})
		g.AddNode(&Request{Switch: "s2", Op: pattern.OpMod, FlowID: uint32(i), Priority: 1, HasPriority: true})
	}
	db := testDB("s1", "s2")
	res, err := Run(g, &Tango{DB: db}, CardExecutor{DB: db}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := 10 * testCard("x").Mod
	if res.Makespan != want {
		t.Fatalf("makespan = %v, want %v (parallel rounds)", res.Makespan, want)
	}
}

func TestTangoBeatsDionysusOnHardware(t *testing.T) {
	// The Figure 10 effect in miniature: a mixed batch on a hardware
	// switch. Tango groups deletes/mods and installs adds ascending;
	// Dionysus issues in arbitrary (input) order paying descending-priority
	// shifts.
	const nAdd, nMod, nDel = 150, 75, 75
	db := testDB(switchsim.Switch1().Name)

	run := func(s Scheduler) time.Duration {
		g := mixedGraph(switchsim.Switch1().Name, nAdd, nMod, nDel)
		e := hwEngine(t, nMod+nDel)
		res, err := Run(g, s, EngineExecutor{switchsim.Switch1().Name: e}, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	dio := run(Dionysus{})
	tangoType := run(&Tango{DB: db})
	tangoFull := run(&Tango{DB: db, SortPriorities: true})
	if tangoFull >= dio {
		t.Fatalf("tango (%v) not faster than dionysus (%v)", tangoFull, dio)
	}
	if tangoFull > tangoType {
		t.Fatalf("priority sorting (%v) should not lose to type-only (%v)", tangoFull, tangoType)
	}
}

func TestEnforcePriorities(t *testing.T) {
	g := NewGraph()
	a := g.AddNode(&Request{Switch: "s", Op: pattern.OpAdd, FlowID: 1})
	b := g.AddNode(&Request{Switch: "s", Op: pattern.OpAdd, FlowID: 2})
	c := g.AddNode(&Request{Switch: "s", Op: pattern.OpAdd, FlowID: 3})
	fixed := g.AddNode(&Request{Switch: "s", Op: pattern.OpAdd, FlowID: 4, Priority: 9999, HasPriority: true})
	if err := g.AddEdge(a, b); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(b, c); err != nil {
		t.Fatal(err)
	}
	EnforcePriorities(g, 100)
	if g.Payload(a).Priority != 100 || g.Payload(b).Priority != 101 || g.Payload(c).Priority != 102 {
		t.Fatalf("levels: %d %d %d", g.Payload(a).Priority, g.Payload(b).Priority, g.Payload(c).Priority)
	}
	if g.Payload(fixed).Priority != 9999 {
		t.Fatal("enforcement clobbered an app-assigned priority")
	}
}

func TestConcurrentExtensionCoIssuesCrossSwitch(t *testing.T) {
	g := NewGraph()
	a := g.AddNode(&Request{Switch: "s1", Op: pattern.OpMod, FlowID: 1, Priority: 1, HasPriority: true})
	b := g.AddNode(&Request{Switch: "s2", Op: pattern.OpMod, FlowID: 2, Priority: 1, HasPriority: true})
	if err := g.AddEdge(a, b); err != nil {
		t.Fatal(err)
	}
	db := testDB("s1", "s2")
	res, err := Run(g, &Tango{DB: db}, CardExecutor{DB: db}, RunOptions{Concurrent: true, GuardTime: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1 with concurrent issue", res.Rounds)
	}
	// Same-switch dependencies must NOT be co-issued.
	g2 := NewGraph()
	a2 := g2.AddNode(&Request{Switch: "s1", Op: pattern.OpMod, FlowID: 1, Priority: 1, HasPriority: true})
	b2 := g2.AddNode(&Request{Switch: "s1", Op: pattern.OpMod, FlowID: 2, Priority: 1, HasPriority: true})
	if err := g2.AddEdge(a2, b2); err != nil {
		t.Fatal(err)
	}
	res2, err := Run(g2, &Tango{DB: db}, CardExecutor{DB: db}, RunOptions{Concurrent: true})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Rounds != 2 {
		t.Fatalf("same-switch dependency co-issued: rounds = %d", res2.Rounds)
	}
}

func TestNonGreedyBatchingWins(t *testing.T) {
	// Switch X carries a slow independent op A (mod, 6ms on the test card
	// scaled: use Mod=10ms). Switch Y has a cheap op B whose successor C is
	// also on Y and expensive. Greedy: round1 max(A, B), round2 C — total
	// A + C. Non-greedy: round1 B alone (cheap), round2 {A, C} in parallel
	// — total B + max(A, C).
	card := func(name string, mod time.Duration) *pattern.ScoreCard {
		return &pattern.ScoreCard{SwitchName: name, Mod: mod,
			AddSamePriority: time.Millisecond, AddNewPriority: time.Millisecond,
			Del: time.Millisecond}
	}
	db := pattern.NewDB()
	db.PutScore(card("x", 10*time.Millisecond))
	db.PutScore(card("y", 10*time.Millisecond))

	build := func() *Graph {
		g := NewGraph()
		g.AddNode(&Request{Switch: "x", Op: pattern.OpMod, FlowID: 1, Priority: 1, HasPriority: true}) // A
		b := g.AddNode(&Request{Switch: "y", Op: pattern.OpDel, FlowID: 2, Priority: 1, HasPriority: true})
		c := g.AddNode(&Request{Switch: "y", Op: pattern.OpMod, FlowID: 3, Priority: 1, HasPriority: true})
		if err := g.AddEdge(b, c); err != nil {
			t.Fatal(err)
		}
		return g
	}
	tg := &Tango{DB: db}
	greedy, err := Run(build(), tg, CardExecutor{DB: db}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	nonGreedy, err := Run(build(), tg, CardExecutor{DB: db}, RunOptions{NonGreedy: true})
	if err != nil {
		t.Fatal(err)
	}
	// Greedy: round1 = max(10ms mod on x, 1ms del on y) = 10ms; round2 =
	// 10ms mod on y → 20ms. Non-greedy: round1 = 1ms del; round2 =
	// max(10, 10) = 10ms → 11ms.
	if greedy.Makespan != 20*time.Millisecond {
		t.Fatalf("greedy makespan = %v", greedy.Makespan)
	}
	if nonGreedy.Makespan != 11*time.Millisecond {
		t.Fatalf("non-greedy makespan = %v", nonGreedy.Makespan)
	}
}

func TestNonGreedyFallsBackWithoutEstimator(t *testing.T) {
	// Dionysus implements no estimates; NonGreedy must be a no-op.
	g := NewGraph()
	g.AddNode(&Request{Switch: "s", Op: pattern.OpMod, FlowID: 1, Priority: 1, HasPriority: true})
	db := testDB("s")
	res, err := Run(g, Dionysus{}, CardExecutor{DB: db}, RunOptions{NonGreedy: true})
	if err != nil || res.Rounds != 1 {
		t.Fatalf("res=%+v err=%v", res, err)
	}
}

func TestRunErrorsOnMissingEngine(t *testing.T) {
	g := NewGraph()
	g.AddNode(&Request{Switch: "ghost", Op: pattern.OpAdd, FlowID: 1})
	_, err := Run(g, &Tango{}, EngineExecutor{}, RunOptions{})
	if err == nil {
		t.Fatal("expected error for unknown switch")
	}
}

// panicOn is an executor with a bug on one switch.
type panicOn struct {
	CardExecutor
	sw string
}

func (x panicOn) Execute(sw string, ops []pattern.Op) (time.Duration, error) {
	if sw == x.sw {
		panic("executor bug on " + sw)
	}
	return x.CardExecutor.Execute(sw, ops)
}

// TestRunBatchPanicReachesCaller: a batch that panics on a pool goroutine
// used to kill the process from there, past any recover the caller had. It
// now surfaces on Run's caller, at any worker count, naming the batch.
func TestRunBatchPanicReachesCaller(t *testing.T) {
	for _, workers := range []int{1, 8} {
		g := NewGraph()
		for _, sw := range []string{"s1", "s2", "s3", "s4"} {
			g.AddNode(&Request{Switch: sw, Op: pattern.OpMod, FlowID: 1, Priority: 1, HasPriority: true})
		}
		db := testDB("s1", "s2", "s3", "s4")
		got := func() (v any) {
			defer func() { v = recover() }()
			_, _ = Run(g, &Tango{DB: db}, panicOn{CardExecutor{DB: db}, "s3"}, RunOptions{Workers: workers})
			return nil
		}()
		pe, ok := got.(*parallel.PanicError)
		if !ok {
			t.Fatalf("workers=%d: recovered %v, want *parallel.PanicError", workers, got)
		}
		// Batches are indexed in sorted switch order.
		if pe.Index != 2 || pe.Value != "executor bug on s3" {
			t.Fatalf("workers=%d: job %d panicked with %v, want job 2 (s3)", workers, pe.Index, pe.Value)
		}
	}
}

func TestMeasuredCardDrivesScheduler(t *testing.T) {
	// End-to-end: fit a card by probing, then verify the scheduler picks
	// ascending adds for the hardware profile.
	s := switchsim.New(switchsim.Switch1(), switchsim.WithSeed(9))
	e := probe.NewEngine(probe.SimDevice{S: s})
	card, err := infer.MeasureCosts(e, switchsim.Switch1().Name, infer.CostOptions{})
	if err != nil {
		t.Fatal(err)
	}
	db := pattern.NewDB()
	db.PutScore(card)
	tg := &Tango{DB: db, SortPriorities: true}
	reqs := []*Request{
		{Switch: card.SwitchName, Op: pattern.OpAdd, Priority: 300, HasPriority: true},
		{Switch: card.SwitchName, Op: pattern.OpAdd, Priority: 100, HasPriority: true},
		{Switch: card.SwitchName, Op: pattern.OpAdd, Priority: 200, HasPriority: true},
	}
	got := tg.Order(card.SwitchName, reqs, nil, nil)
	if got[0].Priority != 100 || got[1].Priority != 200 || got[2].Priority != 300 {
		t.Fatalf("measured card did not yield ascending order: %v %v %v",
			got[0].Priority, got[1].Priority, got[2].Priority)
	}
}

func TestDeadlineOrderingAndMisses(t *testing.T) {
	db := testDB("s")
	tg := &Tango{DB: db, SortPriorities: true}
	reqs := []*Request{
		{Switch: "s", Op: pattern.OpAdd, FlowID: 1, Priority: 10, HasPriority: true},
		{Switch: "s", Op: pattern.OpAdd, FlowID: 2, Priority: 30, HasPriority: true, InstallBy: 5 * time.Millisecond},
		{Switch: "s", Op: pattern.OpAdd, FlowID: 3, Priority: 20, HasPriority: true, InstallBy: 2 * time.Millisecond},
	}
	got := tg.Order("s", reqs, nil, nil)
	// Earliest deadline first, best-effort last.
	if got[0].FlowID != 3 || got[1].FlowID != 2 || got[2].FlowID != 1 {
		t.Fatalf("order: %d %d %d", got[0].FlowID, got[1].FlowID, got[2].FlowID)
	}

	// Misses: a batch taking ~3x Mod blows a deadline shorter than that.
	g := NewGraph()
	for i := 0; i < 3; i++ {
		g.AddNode(&Request{Switch: "s", Op: pattern.OpMod, FlowID: uint32(i),
			Priority: 1, HasPriority: true, InstallBy: 10 * time.Millisecond})
	}
	g.AddNode(&Request{Switch: "s", Op: pattern.OpMod, FlowID: 9,
		Priority: 1, HasPriority: true, InstallBy: time.Hour})
	// testCard Mod = 6ms; batch of 4 mods = 24ms > 10ms deadline.
	reg := telemetry.NewRegistry()
	if _, err := Run(g, tg, CardExecutor{DB: db}, RunOptions{Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("sched.deadline_misses").Value(); got != 3 {
		t.Fatalf("misses = %d, want 3", got)
	}
}

// TestReleasedStateIsClean: however a run ends — drained, failed or
// panicked — the state it hands back to the free list holds no request of
// its graph, no card, error or oracle, no job past round 0, and no job of a
// switch the run did not touch.
func TestReleasedStateIsClean(t *testing.T) {
	DrainFreeStates()
	db := testDB("s1", "s2", "s3", "s4")
	oracle := func(string, uint16) int { return 1 }
	build := func(switches ...string) *Graph {
		g := NewGraph()
		var prev dag.NodeID
		for i := 0; i < 24; i++ {
			id := g.AddNode(&Request{Switch: switches[i%len(switches)], Op: pattern.OpKind(i % 3),
				FlowID: uint32(i), Priority: uint16(10 + i%5), HasPriority: true})
			if i%4 == 3 {
				_ = g.AddEdge(prev, id)
			}
			prev = id
		}
		return g
	}
	for _, c := range []struct {
		name    string
		run     func()
		touched []string
	}{
		{"drained", func() {
			tg := &Tango{DB: db, SortPriorities: true, ExistingHigher: oracle}
			if _, err := Run(build("s1", "s2"), tg, CardExecutor{DB: db}, RunOptions{Workers: 2}); err != nil {
				t.Fatal(err)
			}
		}, []string{"s1", "s2"}},
		{"failed", func() {
			if _, err := Run(build("s2", "s3"), &Tango{DB: db}, EngineExecutor{}, RunOptions{Workers: 2}); err == nil {
				t.Fatal("a switch with no engine ran")
			}
		}, []string{"s2", "s3"}},
		{"panicked", func() {
			defer func() { _ = recover() }()
			_, _ = Run(build("s3", "s4"), &Tango{DB: db, ExistingHigher: oracle}, panicOn{CardExecutor{DB: db}, "s4"}, RunOptions{Workers: 2})
			t.Fatal("the panicking batch did not reach the caller")
		}, []string{"s3", "s4"}},
	} {
		c.run()
		st := <-freeStates
		if len(st.jobs) != len(c.touched) {
			t.Errorf("%s: %d jobs kept, want the %d of %v", c.name, len(st.jobs), len(c.touched), c.touched)
		}
		held := func(reqs []*Request) bool {
			return slices.ContainsFunc(reqs[:cap(reqs)], func(r *Request) bool { return r != nil })
		}
		for _, sw := range c.touched {
			job := st.jobs[sw]
			if job == nil {
				t.Errorf("%s: no job kept for %s", c.name, sw)
				continue
			}
			sc := &job.scratch
			if job.round != 0 || job.card != nil || job.err != nil || sc.oracle != nil {
				t.Errorf("%s: %s's job kept round %d, card %v, error %v, oracle set %v", c.name, sw, job.round, job.card, job.err, sc.oracle != nil)
			}
			for _, reqs := range [][]*Request{job.reqs, job.ordered, sc.dels, sc.mods, sc.adds[0], sc.adds[1]} {
				if held(reqs) {
					t.Errorf("%s: %s's job holds a request of the consumed graph", c.name, sw)
				}
			}
		}
		if slices.ContainsFunc(st.active[:cap(st.active)], func(j *batchJob) bool { return j != nil }) {
			t.Errorf("%s: the active list holds a job", c.name)
		}
		freeStates <- st
	}
}

// TestReleasedStateStaysSmall: what a kept state holds follows the last
// run, not the largest one. After one batch of 4,096 requests on a switch
// and then a run of 8 on it, the state keeps no buffer the small run would
// not have grown; and once the switch→job map has held more than twice the
// jobs a run leaves, it is a new map, not the old one with its buckets.
func TestReleasedStateStaysSmall(t *testing.T) {
	DrainFreeStates()
	names := make([]string, 200)
	for i := range names {
		names[i] = fmt.Sprintf("s%03d", i)
	}
	db := testDB(names...)
	run := func(switches []string, n int) *runState {
		g := NewGraph()
		for i := 0; i < n; i++ {
			g.AddNode(&Request{Switch: switches[i%len(switches)], Op: pattern.OpAdd,
				FlowID: uint32(i), Priority: uint16(i % 50), HasPriority: true})
		}
		if _, err := Run(g, &Tango{DB: db, SortPriorities: true}, CardExecutor{DB: db}, RunOptions{}); err != nil {
			t.Fatal(err)
		}
		st := <-freeStates
		freeStates <- st
		return st
	}
	if st := run(names[:1], 4096); cap(st.jobs["s000"].ids) < 4096 {
		t.Fatalf("the large run kept no job for its batch: cap %d", cap(st.jobs["s000"].ids))
	}
	st := run(names[:1], 8)
	if job := st.jobs["s000"]; job != nil {
		sc := &job.scratch
		for _, c := range []int{cap(job.ids), cap(job.reqs), cap(job.ordered), cap(job.ops),
			cap(sc.dels), cap(sc.mods), cap(sc.adds[0]), cap(sc.adds[1]), cap(sc.opsAdd[0]), cap(sc.opsAdd[1])} {
			if c > keepFloor {
				t.Fatalf("after a run of 8, the kept job still has a buffer of %d", c)
			}
		}
	}

	same := func(a, b map[string]*batchJob) bool {
		return reflect.ValueOf(a).UnsafePointer() == reflect.ValueOf(b).UnsafePointer()
	}
	big := run(names, 400).jobs
	if len(big) != len(names) {
		t.Fatalf("the 200-switch run kept %d jobs", len(big))
	}
	// 110 switches: the map once held fewer than twice that, so it stays.
	if mid := run(names[:110], 220).jobs; len(mid) != 110 || !same(mid, big) {
		t.Fatalf("after a run on 110 switches the state kept %d jobs, same map %v", len(mid), same(mid, big))
	}
	// 60: the map still has the buckets of 200, more than twice 60.
	if small := run(names[:60], 120).jobs; len(small) != 60 || same(small, big) {
		t.Fatalf("after a run on 60 switches the state kept %d jobs, same map %v", len(small), same(small, big))
	}
}

package main

import (
	"fmt"
	"time"

	"tango/internal/core/pattern"
	"tango/internal/core/probe"
	"tango/internal/core/sched"
	"tango/internal/experiments"
	"tango/internal/switchsim"
)

// The two scheduler workloads share the shape of an op: generate a fresh
// request graph (untimed — sched.Run consumes the graph), drain it with
// Tango under the meter, and check that nothing is left. Set-up holds Tango
// against Dionysus once, on reference graphs drawn from the seed.

// schedQuality accumulates the deterministic outcome of the drained graphs.
type schedQuality struct {
	runs     int
	rounds   int
	makespan time.Duration
	dioRuns  int
	dioRatio float64 // summed Dionysus/Tango makespan ratios
}

// drained checks a finished run: nothing left in the graph.
func drained(g *sched.Graph) error {
	if n := g.Len(); n != 0 {
		return fmt.Errorf("%d requests left in the graph", n)
	}
	return nil
}

// reference drains one reference input under Tango and under Dionysus (run
// builds it afresh each time) and files the makespan ratio; Tango's must not
// be the longer.
func (q *schedQuality) reference(run func(dionysus bool) (*sched.RunResult, error)) error {
	tg, err := run(false)
	if err != nil {
		return err
	}
	dio, err := run(true)
	if err != nil {
		return fmt.Errorf("Dionysus: %w", err)
	}
	q.dioRuns++
	q.dioRatio += dio.Makespan.Seconds() / tg.Makespan.Seconds()
	if tg.Makespan > dio.Makespan {
		return fmt.Errorf("Tango makespan %v above Dionysus %v", tg.Makespan, dio.Makespan)
	}
	return nil
}

// traced wraps a scheduler and an executor with the tracer's spans (or
// returns them unchanged on an untraced run). execLayer names the layer the
// executor's own time belongs to.
func traced(tr *tracer, s sched.Scheduler, x sched.Executor, execLayer string) (sched.Scheduler, sched.Executor) {
	if tr == nil {
		return s, x
	}
	return &tracedScheduler{Scheduler: s, tr: tr, slot: tr.slot(rootSlot, "order", "sched.order")},
		&tracedExecutor{Executor: x, tr: tr, slot: tr.slot(rootSlot, "execute", execLayer)}
}

// traceDevices rebuilds each engine of ex over a timed device on the same
// (already preloaded) switch, billing device time under the executor's span.
func traceDevices(tr *tracer, ex sched.EngineExecutor) {
	slot := tr.slot(tr.slot(rootSlot, "execute", "probe"), "device", "switchsim")
	for name, e := range ex {
		ex[name] = probe.NewEngine(&tracedDevice{SimDevice: e.Device().(probe.SimDevice), tr: tr, slot: slot})
	}
}

// sched_plan: sched.Run of a 32-switch, 6400-request, 40-level graph with
// Tango on the cost-model executor — no switch behind it. dag, sched and
// pattern do all the work; switchsim, ofconn and infer do none, so a
// scheduler or frontier change shows here undiluted.
type schedPlan struct {
	seed int64
	m    *meter
	tr   *tracer
	db   *pattern.DB
	q    schedQuality
}

const (
	planSwitches = 32
	planRequests = 6400
	planLevels   = 40
	// The Dionysus reference runs on a quarter-size graph: its critical-path
	// ordering takes seconds at full size, against milliseconds for Tango.
	refSwitches = 8
	refRequests = 1600
	// planGraphs is how many graphs the seed draws; a pass drains each once,
	// so every pass does the same work.
	planGraphs = 8
)

func (w *schedPlan) cycle() int { return planGraphs }

// setup builds the score database every op plans against — it depends on the
// fleet size only, and a controller keeps it across updates, so its memo
// tables stay warm — and checks Tango against Dionysus on a reference graph.
func (w *schedPlan) setup(seed int64, m *meter, tr *tracer) error {
	w.seed, w.m, w.tr = seed, m, tr
	_, w.db = experiments.SchedWorkload(planSwitches, 1, 1, seed)
	return w.q.reference(func(dionysus bool) (*sched.RunResult, error) {
		var s sched.Scheduler = &sched.Tango{DB: w.db, SortPriorities: true}
		if dionysus {
			s = sched.Dionysus{}
		}
		g, _ := experiments.SchedWorkload(refSwitches, refRequests, planLevels, seed)
		return sched.Run(g, s, sched.CardExecutor{DB: w.db}, sched.RunOptions{Workers: genWorkers()})
	})
}

func (w *schedPlan) op(i int) (float64, error) {
	g, _ := experiments.SchedWorkload(planSwitches, planRequests, planLevels, w.seed+int64(i%planGraphs))
	tg, ex := traced(w.tr, &sched.Tango{DB: w.db, SortPriorities: true}, sched.CardExecutor{DB: w.db}, "pattern")
	w.m.start()
	res, err := sched.Run(g, tg, ex, sched.RunOptions{Workers: genWorkers()})
	w.m.stop()
	if err != nil {
		return 0, err
	}
	w.q.runs++
	w.q.rounds += res.Rounds
	w.q.makespan += res.Makespan
	return planRequests, drained(g)
}

func (w *schedPlan) finish() []error { return nil }

// update_b4: one network-wide update on the hardware testbed of Figures
// 10/12 — a link-failure reroute and two traffic-engineering mixes in turn —
// run by sched.Run + Tango through probing engines into emulated switches.
// It uses switchsim and flowtable on their write path (adds, modifies and
// deletes with priority shifts) and the sched.Run worker pool; the scheduler
// is a minority of the work, so a dag gain is diluted here by design.
type updateB4 struct {
	seed     int64
	m        *meter
	tr       *tracer
	profiles map[string]switchsim.Profile
	db       *pattern.DB
	q        schedQuality
}

// updateScenarios are the three updates of one cycle.
var updateScenarios = []struct {
	name  string
	build func(seed int64) (*sched.Graph, map[string]experiments.PreloadSpec)
}{
	{"LF", func(s int64) (*sched.Graph, map[string]experiments.PreloadSpec) {
		return experiments.LFScenario(400, s)
	}},
	{"TE1", func(s int64) (*sched.Graph, map[string]experiments.PreloadSpec) {
		return experiments.TEScenario(800, 2, 1, 1, s)
	}},
	{"TE2", func(s int64) (*sched.Graph, map[string]experiments.PreloadSpec) {
		return experiments.TEScenario(800, 1, 1, 1, s)
	}},
}

// updateDraws is how many times the seed draws each scenario; a pass runs
// every draw once, so every pass does the same work.
const updateDraws = 4

func (w *updateB4) cycle() int { return updateDraws * len(updateScenarios) }

// setup probes the testbed's score database and checks Tango against
// Dionysus on the seed's three scenarios.
func (w *updateB4) setup(seed int64, m *meter, tr *tracer) error {
	w.seed, w.m, w.tr = seed, m, tr
	w.profiles = experiments.TestbedProfiles()
	w.db = experiments.BuildScoreDB(w.profiles)
	for _, sc := range updateScenarios {
		err := w.q.reference(func(dionysus bool) (*sched.RunResult, error) {
			g, preload := sc.build(seed)
			s := w.tango(preload)
			if dionysus {
				s = sched.Dionysus{}
			}
			return sched.Run(g, s, experiments.ExecutorFor(w.profiles, preload, seed), sched.RunOptions{Workers: genWorkers()})
		})
		if err != nil {
			return fmt.Errorf("%s: %w", sc.name, err)
		}
	}
	return nil
}

func (w *updateB4) tango(preload map[string]experiments.PreloadSpec) sched.Scheduler {
	return &sched.Tango{DB: w.db, SortPriorities: true, ExistingHigher: experiments.ExistingHigherFor(preload)}
}

func (w *updateB4) op(i int) (float64, error) {
	sc := updateScenarios[i%len(updateScenarios)]
	s := w.seed + int64(i/len(updateScenarios)%updateDraws)
	g, preload := sc.build(s)
	requests := float64(g.Len())
	engines := experiments.ExecutorFor(w.profiles, preload, w.seed)
	if w.tr != nil {
		traceDevices(w.tr, engines)
	}
	tg, ex := traced(w.tr, w.tango(preload), engines, "probe")
	w.m.start()
	res, err := sched.Run(g, tg, ex, sched.RunOptions{Workers: genWorkers()})
	w.m.stop()
	if err != nil {
		return 0, fmt.Errorf("%s: %w", sc.name, err)
	}
	w.q.runs++
	w.q.rounds += res.Rounds
	w.q.makespan += res.Makespan
	if err := drained(g); err != nil {
		return requests, fmt.Errorf("%s: %w", sc.name, err)
	}
	return requests, nil
}

func (w *updateB4) finish() []error { return nil }

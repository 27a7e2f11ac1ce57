// Package sched implements the Tango network scheduler (§6): it drains a
// DAG of switch requests by repeatedly extracting the independent set,
// ordering each switch's batch with the best-scoring rewrite pattern from
// the Tango score database (Algorithm 3), and issuing the batches. A
// Dionysus-style critical-path scheduler is provided as the comparison
// baseline of §7.2 — it schedules the same DAG but is oblivious to per-
// operation-type and priority-order cost diversity.
package sched

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"tango/internal/core/pattern"
	"tango/internal/dag"
	"tango/internal/parallel"
	"tango/internal/simclock"
	"tango/internal/telemetry"
)

// Request is one switch request (the req_elem of §6): an operation to
// perform at a given switch, optionally carrying an application-assigned
// priority and a soft deadline.
type Request struct {
	// Switch is the location field: which switch executes the request.
	Switch string
	// Op is the operation type (add / mod / del).
	Op pattern.OpKind
	// FlowID identifies the rule the operation targets.
	FlowID uint32
	// Priority is the rule priority. Meaningful only when HasPriority.
	Priority uint16
	// HasPriority distinguishes app-specified priorities (priority sorting
	// applies) from unassigned ones (priority enforcement may choose them).
	HasPriority bool
	// InstallBy is an optional deadline relative to schedule start; zero
	// means best effort.
	InstallBy time.Duration
}

// Graph is a dependency DAG over requests.
type Graph = dag.Graph[*Request]

// NewGraph returns an empty request graph.
func NewGraph() *Graph { return dag.New[*Request]() }

// Scheduler orders one switch's batch of independent requests.
type Scheduler interface {
	// Name labels the scheduler in experiment output.
	Name() string
	// Order returns reqs in issue order. ids are the corresponding DAG
	// nodes (for critical-path computations); g is the full graph.
	Order(switchName string, reqs []*Request, ids []dag.NodeID, g *Graph) []*Request
}

// Tango is the Basic Tango Scheduler of Algorithm 3 with the priority-
// sorting optimization: it evaluates the rewrite patterns — all six
// type-permutations crossed with ascending/descending add orders — against
// the switch's score card and issues the cheapest.
type Tango struct {
	// DB supplies per-switch score cards. Switches without a card fall
	// back to the universally safe pattern: deletes, then modifies, then
	// additions in ascending priority order.
	DB *pattern.DB
	// SortPriorities enables reordering adds by priority (§7's "Priority
	// sorting"). Without it adds keep their input order, so the scheduler
	// optimizes only the type pattern ("Tango (Type)" in Figure 10).
	SortPriorities bool
	// ExistingHigher, when set, tells the pattern oracle how many rules
	// with priority strictly above p the controller believes are resident
	// on the switch — state the controller has, since it installed those
	// rules. It lets the oracle see that deleting high-priority rules
	// before adding saves TCAM shifts. It must be safe for concurrent
	// calls when the runner uses parallel workers (RunOptions.Workers).
	ExistingHigher func(switchName string, p uint16) int
	// Metrics, when set, receives the per-pattern score distribution
	// (histogram "sched.pattern_score_ns": the estimated cost of every
	// rewrite candidate evaluated). Nil falls back to the process-wide
	// default registry; with neither, scoring records nothing.
	Metrics *telemetry.Registry

	scoreOnce sync.Once
	hScore    *telemetry.Histogram

	// scratch pools the per-call ordering buffers, keeping Order
	// allocation-lean and safe under concurrent per-switch calls.
	scratch sync.Pool
}

// scoreHist lazily binds the pattern-score histogram.
func (t *Tango) scoreHist() *telemetry.Histogram {
	t.scoreOnce.Do(func() {
		reg := t.Metrics
		if reg == nil {
			reg = telemetry.Default()
		}
		t.hScore = reg.Histogram("sched.pattern_score_ns")
	})
	return t.hScore
}

// Name implements Scheduler.
func (t *Tango) Name() string {
	if t.SortPriorities {
		return "tango-type+priority"
	}
	return "tango-type"
}

// Order implements Scheduler.
func (t *Tango) Order(switchName string, reqs []*Request, _ []dag.NodeID, _ *Graph) []*Request {
	// 12 = the 6 type-permutations × up to 2 add orders.
	var scoreBuf [12]float64
	ordered, scores, _ := t.plan(switchName, reqs, make([]*Request, 0, len(reqs)), scoreBuf[:0])
	t.observeScores(scores)
	return ordered
}

// observeScores folds candidate costs collected by plan into the
// pattern-score histogram. The parallel runner calls this during its
// deterministic aggregation pass, so histogram contents are identical
// whatever the worker count.
func (t *Tango) observeScores(scores []float64) {
	if len(scores) == 0 {
		return
	}
	h := t.scoreHist()
	for _, v := range scores {
		h.Observe(v)
	}
}

// The two add orders a candidate can use, as indexes into the scratch's
// per-order buffers.
const (
	ascending = iota
	descending
)

// orderScratch holds the buffers one plan call needs: the three op-type
// groups (adds once per order), the pattern.Op mirrors of the groups the
// estimator prices, and the streaming estimator. Pooled on the Tango so
// steady-state ordering allocates nothing.
type orderScratch struct {
	dels, mods []*Request
	adds       [2][]*Request
	opsDel     []pattern.Op
	opsAdd     [2][]pattern.Op
	est        pattern.Estimator

	// existing is the method value of existingHigher, bound once per scratch
	// so handing the estimator a per-switch oracle allocates no closure; sw
	// and oracle are what it reads, set by each plan call.
	existing func(uint16) int
	sw       string
	oracle   func(switchName string, p uint16) int
}

func (sc *orderScratch) existingHigher(p uint16) int { return sc.oracle(sc.sw, p) }

// groupFor returns the request group for kind under the given add order.
func (sc *orderScratch) groupFor(kind pattern.OpKind, order int) []*Request {
	switch kind {
	case pattern.OpDel:
		return sc.dels
	case pattern.OpMod:
		return sc.mods
	default:
		return sc.adds[order]
	}
}

// addGroupCost prices the add group alone, in the given order, as it costs
// inside a candidate: after the deletes when delsFirst (which then must be a
// non-empty group, as must the adds), on an untouched table otherwise. The
// del→add type switch the estimator charges on the first add belongs to the
// candidates' fixed term and is taken back out.
func (sc *orderScratch) addGroupCost(card *pattern.ScoreCard, existing func(uint16) int, adds []pattern.Op, delsFirst bool) time.Duration {
	sc.est.Begin(card, existing)
	var before time.Duration
	if delsFirst {
		sc.est.Feed(sc.opsDel)
		before = sc.est.Total() + card.TypeSwitch
	}
	sc.est.Feed(adds)
	return sc.est.Total() - before
}

// delsBeforeAdds reports whether perm runs its deletes ahead of its adds.
func delsBeforeAdds(perm [3]pattern.OpKind) bool {
	for _, kind := range perm {
		if kind != pattern.OpMod {
			return kind == pattern.OpDel
		}
	}
	return false
}

func (t *Tango) getScratch() *orderScratch {
	if sc, ok := t.scratch.Get().(*orderScratch); ok {
		return sc
	}
	sc := &orderScratch{}
	sc.existing = sc.existingHigher
	return sc
}

// deadlineCmp orders deadline-carrying requests first (earliest deadline
// first) so best-effort requests absorb the tail of the batch — the
// install_by semantics of the §6 request format.
func deadlineCmp(a, b *Request) int {
	da, db := a.InstallBy, b.InstallBy
	switch {
	case da > 0 && db > 0:
		return cmp.Compare(da, db)
	case da > 0:
		return -1
	case db > 0:
		return 1
	}
	return 0
}

// addAscCmp and addDescCmp order adds by deadline, then priority. A single
// stable sort on the composite key equals the former pair of stable sorts
// (priority first, then deadline).
func addAscCmp(a, b *Request) int {
	if c := deadlineCmp(a, b); c != 0 {
		return c
	}
	return cmp.Compare(a.Priority, b.Priority)
}

func addDescCmp(a, b *Request) int {
	if c := deadlineCmp(a, b); c != 0 {
		return c
	}
	return cmp.Compare(b.Priority, a.Priority)
}

// plan is the core of Order: it partitions reqs by op type into pooled
// scratch groups in a single pass, prices the six type-permutations crossed
// with the add orders against the switch's score card in closed form, then
// appends the winning ordering to dst.
//
// The candidates differ only in the order the three groups are concatenated
// in, and every group is homogeneous in kind, so each candidate costs the
// same fixed term — len(mods)·Mod + len(dels)·Del + one TypeSwitch per
// boundary between non-empty groups — plus its add group. An add's cost
// depends on the adds before it (the add order) and, only when an
// ExistingHigher oracle credits the space deletes free, on whether the
// deletes ran first. So the estimator prices the add group at most once per
// (add order, deletes first) — two passes over the adds without an oracle,
// four with — never the whole batch per candidate, and integer Duration
// arithmetic makes every composed total exactly what pricing the
// materialized candidate gives (sched's pricing differential holds the two
// equal).
//
// Each candidate's estimated cost is appended to scores for the caller to
// fold into the pattern-score histogram — deferred so parallel workers can
// replay them in deterministic order. Returns the extended dst and scores
// plus the winning cost, -1 when the switch has no score card and the
// universally safe fallback (deletes, modifies, adds ascending) was used.
func (t *Tango) plan(switchName string, reqs []*Request, dst []*Request, scores []float64) ([]*Request, []float64, time.Duration) {
	var card *pattern.ScoreCard
	if t.DB != nil {
		card, _ = t.DB.Score(switchName)
	}
	sc := t.getScratch()
	defer t.scratch.Put(sc)

	dels, mods, adds := sc.dels[:0], sc.mods[:0], sc.adds[ascending][:0]
	for _, r := range reqs {
		switch r.Op {
		case pattern.OpDel:
			dels = append(dels, r)
		case pattern.OpMod:
			mods = append(mods, r)
		default:
			adds = append(adds, r)
		}
	}
	slices.SortStableFunc(dels, deadlineCmp)
	slices.SortStableFunc(mods, deadlineCmp)
	addOrders := 1
	if card != nil && t.SortPriorities {
		// The descending copy must branch off *before* the ascending sort:
		// both directions tie-break equal keys by input order.
		sc.adds[descending] = append(sc.adds[descending][:0], adds...)
		slices.SortStableFunc(sc.adds[descending], addDescCmp)
		addOrders = 2
	}
	if t.SortPriorities {
		slices.SortStableFunc(adds, addAscCmp)
	} else {
		slices.SortStableFunc(adds, deadlineCmp)
	}
	sc.dels, sc.mods, sc.adds[ascending] = dels, mods, adds

	if card == nil {
		// No measurements: fall back to the pattern that is never worse on
		// any switch we have modelled.
		dst = append(dst, dels...)
		dst = append(dst, mods...)
		dst = append(dst, adds...)
		return dst, scores, -1
	}

	fixed := time.Duration(len(mods))*card.Mod + time.Duration(len(dels))*card.Del
	nonEmpty := 0
	for _, n := range [3]int{len(dels), len(mods), len(adds)} {
		if n > 0 {
			nonEmpty++
		}
	}
	if nonEmpty > 1 {
		fixed += time.Duration(nonEmpty-1) * card.TypeSwitch
	}
	for o := 0; o < addOrders; o++ {
		sc.opsAdd[o] = appendOps(sc.opsAdd[o][:0], sc.adds[o])
	}
	// Deletes ahead of the adds change the adds' cost only through the
	// oracle's credit, and only if there is something on both sides.
	var existing func(uint16) int
	delsMatter := false
	if t.ExistingHigher != nil {
		sc.sw, sc.oracle = switchName, t.ExistingHigher
		existing = sc.existing
		if delsMatter = len(dels) > 0 && len(adds) > 0; delsMatter {
			sc.opsDel = appendOps(sc.opsDel[:0], dels)
		}
	}
	// addCost[o][d] caches the add group's cost in add order o with (d = 1)
	// or without the deletes ahead of it.
	var (
		addCost [2][2]time.Duration
		priced  [2][2]bool
	)
	bestCost := time.Duration(-1)
	bestPerm, bestOrder := pattern.Permutations3[0], ascending
	for _, perm := range pattern.Permutations3 {
		d := 0
		if delsMatter && delsBeforeAdds(perm) {
			d = 1
		}
		for o := 0; o < addOrders; o++ {
			if !priced[o][d] {
				addCost[o][d] = sc.addGroupCost(card, existing, sc.opsAdd[o], d == 1)
				priced[o][d] = true
			}
			cost := fixed + addCost[o][d]
			scores = append(scores, float64(cost))
			if bestCost < 0 || cost < bestCost {
				bestCost, bestPerm, bestOrder = cost, perm, o
			}
		}
	}
	for _, kind := range bestPerm {
		dst = append(dst, sc.groupFor(kind, bestOrder)...)
	}
	return dst, scores, bestCost
}

// Dionysus is the baseline: critical-path scheduling that issues requests
// on longer dependency chains first but does not reorder by operation type
// or priority — exactly the diversity-obliviousness §7.2 compares against.
type Dionysus struct{}

// Name implements Scheduler.
func (Dionysus) Name() string { return "dionysus" }

// Order implements Scheduler.
func (Dionysus) Order(_ string, reqs []*Request, ids []dag.NodeID, g *Graph) []*Request {
	lengths := g.LongestPathLengths()
	idx := make([]int, len(reqs))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int {
		return cmp.Compare(lengths[ids[b]], lengths[ids[a]])
	})
	out := make([]*Request, len(reqs))
	for i, j := range idx {
		out[i] = reqs[j]
	}
	return out
}

// appendOps converts requests to pattern ops, appending into dst so
// callers can reuse a scratch buffer.
func appendOps(dst []pattern.Op, reqs []*Request) []pattern.Op {
	for _, r := range reqs {
		dst = append(dst, pattern.Op{Kind: r.Op, FlowID: r.FlowID, Priority: r.Priority})
	}
	return dst
}

// Executor issues an ordered batch of operations on one switch and reports
// how long the switch took. Experiments back this with per-switch emulated
// engines running on independent virtual clocks.
type Executor interface {
	Execute(switchName string, ops []pattern.Op) (time.Duration, error)
}

// RunOptions tunes Run.
type RunOptions struct {
	// Concurrent enables the §6 extension that issues a request whose
	// dependencies all sit on *other* switches in the same round, relying
	// on latency estimates plus a guard interval instead of barriers
	// (weak-consistency scenarios). GuardTime is added once per dependent
	// request issued this way.
	Concurrent bool
	GuardTime  time.Duration
	// NonGreedy enables the §6 non-greedy batching extension: before each
	// round the runner compares (by score-card estimate) the greedy
	// whole-independent-set batch against issuing only the prefix of
	// requests that unblock successors, letting the freed successors ride
	// in the next batch alongside the deferred remainder. Requires the
	// scheduler to implement BatchEstimator; ignored otherwise.
	NonGreedy bool
	// Workers caps the goroutines ordering and executing a round's
	// per-switch batches, which the paper's model says run in parallel.
	// 0 (the default) uses GOMAXPROCS; 1 forces the serial path. Workers
	// only compute: every result and every sched.* metric and trace span
	// is folded in on the calling goroutine in sorted switch order, so
	// RunResult and telemetry are identical whatever the worker count.
	// The one behavioural difference from the old serial loop is that a
	// failing batch no longer prevents the rest of its round from
	// executing (the first failure in switch order is still the one
	// reported). Schedulers and executors must tolerate concurrent
	// per-switch calls when Workers != 1; the built-in ones do.
	Workers int
	// Metrics receives run counters (rounds, requests, deadline misses),
	// the makespan gauge, and the per-batch duration histogram. Nil falls
	// back to the process-wide default registry; with neither, the run
	// records nothing.
	Metrics *telemetry.Registry
	// Tracer receives sched.round / sched.batch spans on the run's virtual
	// timeline (each switch on its own track). Nil falls back to the
	// process-wide default tracer.
	Tracer *telemetry.Tracer
}

// BatchEstimator is the optional scheduler capability the non-greedy
// extension needs: a cost estimate for executing a batch on a switch.
type BatchEstimator interface {
	EstimateBatch(switchName string, reqs []*Request) (time.Duration, bool)
}

// EstimateBatch implements BatchEstimator using the Tango score database.
// The winning candidate's score *is* the batch estimate, so no ordered
// slice is re-priced.
func (t *Tango) EstimateBatch(switchName string, reqs []*Request) (time.Duration, bool) {
	if t.DB == nil {
		return 0, false
	}
	var scoreBuf [12]float64
	_, scores, cost := t.plan(switchName, reqs, nil, scoreBuf[:0])
	t.observeScores(scores)
	if cost < 0 {
		return 0, false
	}
	return cost, true
}

// RunResult reports a schedule execution.
type RunResult struct {
	// Makespan is the network-wide completion time: rounds execute their
	// per-switch batches in parallel, so each round costs its slowest
	// switch, and rounds are serialised by the dependency barriers.
	Makespan time.Duration
	// Rounds is the number of dependency rounds used.
	Rounds int
}

// batchJob carries one switch's batch through a round: ids are assigned by
// the grouping pass, the middle fields are filled by a worker, and the
// aggregation pass folds them into the result. Jobs are pooled per switch
// across rounds so their slices reach a steady state and stop allocating.
type batchJob struct {
	sw      string
	round   int
	ids     []dag.NodeID
	reqs    []*Request
	ordered []*Request
	ops     []pattern.Op
	scores  []float64
	guards  time.Duration
	elapsed time.Duration
	err     error
}

// Run drains the graph with the given scheduler and executor, returning
// the simulated network-wide makespan. Each round reads the incremental
// dependency frontier, orders and executes the per-switch batches on a
// worker pool (RunOptions.Workers), folds the outcomes in deterministically,
// and retires the round with one O(out-degree) batch removal.
func Run(g *Graph, s Scheduler, exec Executor, opts RunOptions) (*RunResult, error) {
	reg := opts.Metrics
	if reg == nil {
		reg = telemetry.Default()
	}
	tr := opts.Tracer
	if tr == nil {
		tr = telemetry.DefaultTracer()
	}
	var (
		mRounds   = reg.Counter("sched.rounds")
		mRequests = reg.Counter("sched.requests")
		mMisses   = reg.Counter("sched.deadline_misses")
		gMakespan = reg.Gauge("sched.makespan_ns")
		hBatch    = reg.Histogram("sched.batch_ns")
	)
	// Tango defers its pattern-score telemetry to the aggregation pass so
	// worker interleaving can't reorder histogram samples; other schedulers
	// record from inside Order and are on their own under Workers > 1.
	tango, _ := s.(*Tango)
	res := &RunResult{}
	var (
		jobs   = map[string]*batchJob{}
		active []*batchJob
		round  int
	)
	// orderAndExecute orders and executes active[i]'s batch; it is built
	// once per Run, so a round allocates no closure. Workers only read the
	// graph; all mutation and accounting happens on the caller.
	orderAndExecute := func(i int) {
		job := active[i]
		job.reqs = job.reqs[:0]
		job.guards = 0
		for _, id := range job.ids {
			job.reqs = append(job.reqs, g.Payload(id))
			if opts.Concurrent && g.InDegree(id) > 0 {
				job.guards += opts.GuardTime
			}
		}
		job.scores = job.scores[:0]
		if tango != nil {
			job.ordered, job.scores, _ = tango.plan(job.sw, job.reqs, job.ordered[:0], job.scores)
		} else {
			job.ordered = append(job.ordered[:0], s.Order(job.sw, job.reqs, job.ids, g)...)
		}
		job.ops = appendOps(job.ops[:0], job.ordered)
		job.elapsed, job.err = exec.Execute(job.sw, job.ops)
	}
	for g.Len() > 0 {
		indep := g.Frontier()
		if len(indep) == 0 {
			return nil, fmt.Errorf("sched: dependency graph stuck with %d nodes", g.Len())
		}
		// RemoveBatch never writes the frontier, so the round issues it in
		// place; capping its capacity makes the extensions' appends copy.
		issue := indep[:len(indep):len(indep)]
		if opts.NonGreedy {
			if est, ok := s.(BatchEstimator); ok {
				issue = nonGreedyBatch(g, issue, est)
			}
		}
		if opts.Concurrent {
			issue = append(issue, crossSwitchFollowers(g, issue)...)
		}
		// Group by switch onto pooled jobs.
		round++
		active = active[:0]
		for _, id := range issue {
			sw := g.Payload(id).Switch
			job := jobs[sw]
			if job == nil {
				job = &batchJob{sw: sw}
				jobs[sw] = job
			}
			if job.round != round {
				job.round = round
				job.ids = job.ids[:0]
				active = append(active, job)
			}
			job.ids = append(job.ids, id)
		}
		slices.SortFunc(active, func(a, b *batchJob) int { return strings.Compare(a.sw, b.sw) })
		parallel.ForEach(len(active), opts.Workers, orderAndExecute)

		// Deterministic aggregation in sorted switch order: results,
		// counters, histograms, and trace spans all fold in here, so they
		// are bit-for-bit independent of the worker count.
		var roundMax time.Duration
		for _, job := range active {
			if job.err != nil {
				return nil, fmt.Errorf("sched: executing %d ops on %s: %w", len(job.ordered), job.sw, job.err)
			}
			if tango != nil {
				tango.observeScores(job.scores)
			}
			elapsed := job.elapsed + job.guards
			finish := res.Makespan + elapsed
			for _, r := range job.ordered {
				if r.InstallBy > 0 && finish > r.InstallBy {
					mMisses.Add(1)
				}
			}
			if elapsed > roundMax {
				roundMax = elapsed
			}
			hBatch.Observe(float64(elapsed))
			if tr != nil {
				// Batches within a round run in parallel, so each starts at
				// the round boundary of the composed virtual timeline.
				tr.Record("sched.batch", job.sw, simclock.Epoch.Add(res.Makespan), elapsed,
					map[string]any{"ops": len(job.ordered), "scheduler": s.Name(), "round": res.Rounds + 1})
			}
		}
		if tr != nil {
			tr.Record("sched.round", "", simclock.Epoch.Add(res.Makespan), roundMax,
				map[string]any{"round": res.Rounds + 1, "requests": len(issue)})
		}
		mRounds.Add(1)
		mRequests.Add(int64(len(issue)))
		res.Makespan += roundMax
		res.Rounds++
		if _, err := g.RemoveBatch(issue); err != nil {
			return nil, err
		}
	}
	gMakespan.Set(int64(res.Makespan))
	return res, nil
}

// nonGreedyBatch evaluates the §6 prefix alternative with a two-round
// lookahead and returns the batch to issue this round: either the full
// independent set (greedy) or only the subset with successors (prefix),
// whichever the estimates say finishes the two rounds sooner.
func nonGreedyBatch(g *Graph, indep []dag.NodeID, est BatchEstimator) []dag.NodeID {
	var prefix, rest []dag.NodeID
	for _, id := range indep {
		if len(g.Successors(id)) > 0 {
			prefix = append(prefix, id)
		} else {
			rest = append(rest, id)
		}
	}
	if len(prefix) == 0 || len(rest) == 0 {
		return indep
	}
	inSet := func(ids []dag.NodeID) map[dag.NodeID]bool {
		m := make(map[dag.NodeID]bool, len(ids))
		for _, id := range ids {
			m[id] = true
		}
		return m
	}
	// unlockedBy returns the nodes whose predecessors all sit in the batch
	// (given as both slice and set: the slice keeps iteration — and hence
	// estimator telemetry — deterministic).
	unlockedBy := func(ids []dag.NodeID, batch map[dag.NodeID]bool) []dag.NodeID {
		var out []dag.NodeID
		seen := map[dag.NodeID]bool{}
		for _, id := range ids {
			for _, succ := range g.Successors(id) {
				if seen[succ] || batch[succ] {
					continue
				}
				seen[succ] = true
				ok := true
				for _, p := range g.Predecessors(succ) {
					if !batch[p] {
						ok = false
						break
					}
				}
				if ok {
					out = append(out, succ)
				}
			}
		}
		return out
	}
	roundCost := func(ids []dag.NodeID) (time.Duration, bool) {
		bySwitch := map[string][]*Request{}
		var switches []string
		for _, id := range ids {
			r := g.Payload(id)
			if _, ok := bySwitch[r.Switch]; !ok {
				switches = append(switches, r.Switch)
			}
			bySwitch[r.Switch] = append(bySwitch[r.Switch], r)
		}
		// Estimate in sorted switch order so the score histogram fills
		// identically on every run.
		slices.Sort(switches)
		var max time.Duration
		for _, sw := range switches {
			d, ok := est.EstimateBatch(sw, bySwitch[sw])
			if !ok {
				return 0, false
			}
			if d > max {
				max = d
			}
		}
		return max, true
	}

	// Greedy: round 1 = indep, round 2 = everything indep unlocks.
	g1, ok1 := roundCost(indep)
	g2, ok2 := roundCost(unlockedBy(indep, inSet(indep)))
	// Prefix: round 1 = prefix, round 2 = rest + what the prefix unlocks.
	p1, ok3 := roundCost(prefix)
	p2, ok4 := roundCost(append(append([]dag.NodeID(nil), rest...), unlockedBy(prefix, inSet(prefix))...))
	if !(ok1 && ok2 && ok3 && ok4) {
		return indep
	}
	if p1+p2 < g1+g2 {
		return prefix
	}
	return indep
}

// crossSwitchFollowers returns nodes not in the independent set whose
// predecessors (a) are all being issued this round and (b) all live on
// other switches — the candidates the concurrent extension may co-issue.
func crossSwitchFollowers(g *Graph, indep []dag.NodeID) []dag.NodeID {
	inRound := map[dag.NodeID]bool{}
	for _, id := range indep {
		inRound[id] = true
	}
	var extra []dag.NodeID
	for _, id := range indep {
		for _, succ := range g.Successors(id) {
			if inRound[succ] {
				continue
			}
			ok := true
			for _, p := range g.Predecessors(succ) {
				if !inRound[p] || g.Payload(p).Switch == g.Payload(succ).Switch {
					ok = false
					break
				}
			}
			if ok {
				inRound[succ] = true
				extra = append(extra, succ)
			}
		}
	}
	return extra
}

// EnforcePriorities implements the "priority enforcement" optimization of
// §7.2: when applications leave priorities unassigned, Tango chooses them.
// Requests at DAG depth d receive priority base+d, so (a) every dependency
// constraint is satisfiable by installing in ascending priority order and
// (b) the number of distinct priorities is the minimum possible — the DAG
// depth — which maximises cheap same-priority installations.
func EnforcePriorities(g *Graph, base uint16) {
	levels := g.Levels()
	for depth, nodes := range levels {
		for _, id := range nodes {
			r := g.Payload(id)
			if !r.HasPriority {
				r.Priority = base + uint16(depth)
				r.HasPriority = true
			}
		}
	}
}

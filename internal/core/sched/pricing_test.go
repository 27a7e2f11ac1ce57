package sched

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"tango/internal/core/pattern"
	"tango/internal/dag"
	"tango/internal/telemetry"
)

// oraclePlan is the pricing Tango.plan used before it composed candidate
// costs in closed form, kept as the reference: materialise each of the six
// type-permutations × add orders as a flat op sequence and price the whole
// sequence with ScoreCard.EstimateOps — the whole batch once per candidate.
// It returns the scores in candidate order, the first strict minimum's
// ordering and its cost (-1 and the safe fallback without a card).
func oraclePlan(t *Tango, sw string, reqs []*Request) ([]*Request, []float64, time.Duration) {
	var dels, mods, adds []*Request
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
	addOrders := [][]*Request{slices.Clone(adds)}
	if t.SortPriorities {
		slices.SortStableFunc(addOrders[0], addAscCmp)
		addOrders = append(addOrders, slices.Clone(adds))
		slices.SortStableFunc(addOrders[1], addDescCmp)
	} else {
		slices.SortStableFunc(addOrders[0], deadlineCmp)
	}
	var card *pattern.ScoreCard
	if t.DB != nil {
		card, _ = t.DB.Score(sw)
	}
	if card == nil {
		return slices.Concat(dels, mods, addOrders[0]), nil, -1
	}
	var existing func(uint16) int
	if t.ExistingHigher != nil {
		existing = func(p uint16) int { return t.ExistingHigher(sw, p) }
	}
	var (
		scores []float64
		best   []*Request
	)
	bestCost := time.Duration(-1)
	for _, perm := range pattern.Permutations3 {
		for _, addGroup := range addOrders {
			var flat []*Request
			for _, kind := range perm {
				switch kind {
				case pattern.OpDel:
					flat = append(flat, dels...)
				case pattern.OpMod:
					flat = append(flat, mods...)
				default:
					flat = append(flat, addGroup...)
				}
			}
			cost := card.EstimateOps(appendOps(nil, flat), existing)
			scores = append(scores, float64(cost))
			if bestCost < 0 || cost < bestCost {
				bestCost, best = cost, flat
			}
		}
	}
	return best, scores, bestCost
}

// oracleTango schedules with oraclePlan and records every candidate score
// from inside Order, like any scheduler that is not *Tango.
type oracleTango struct {
	*Tango
	hist *telemetry.Histogram
}

func (o oracleTango) Order(sw string, reqs []*Request, _ []dag.NodeID, _ *Graph) []*Request {
	ordered, scores, _ := oraclePlan(o.Tango, sw, reqs)
	for _, v := range scores {
		o.hist.Observe(v)
	}
	return ordered
}

// EstimateBatch shadows Tango's, so the non-greedy extension is oracle-priced
// too.
func (o oracleTango) EstimateBatch(sw string, reqs []*Request) (time.Duration, bool) {
	_, scores, cost := oraclePlan(o.Tango, sw, reqs)
	for _, v := range scores {
		o.hist.Observe(v)
	}
	return cost, cost >= 0
}

// randomCard draws a card whose every term is distinct and non-zero, so no
// pricing term can hide behind another.
func randomCard(name string, rng *rand.Rand) *pattern.ScoreCard {
	us := func(lo, span int) time.Duration {
		return time.Duration(lo+rng.Intn(span))*time.Microsecond + time.Duration(rng.Intn(1000))
	}
	return &pattern.ScoreCard{
		SwitchName:      name,
		AddSamePriority: us(100, 400),
		AddNewPriority:  us(500, 900),
		ShiftPerEntry:   us(1, 30),
		Mod:             us(1000, 6000),
		Del:             us(500, 3000),
		TypeSwitch:      us(50, 500),
	}
}

// randomBatch draws 0–64 requests for sw. Each group is left out a quarter
// of the time; priorities come from a narrow band (duplicates, collisions
// between adds and deletes) or a wide one; a third of the batches carry
// deadlines on some requests.
func randomBatch(sw string, rng *rand.Rand) []*Request {
	kinds := []pattern.OpKind{}
	for _, k := range []pattern.OpKind{pattern.OpAdd, pattern.OpMod, pattern.OpDel} {
		if rng.Intn(4) != 0 {
			kinds = append(kinds, k)
		}
	}
	n := rng.Intn(65)
	if len(kinds) == 0 {
		n = 0
	}
	band := 4 + rng.Intn(5)
	if rng.Intn(2) == 0 {
		band = 4000
	}
	deadlines := rng.Intn(3) == 0
	reqs := make([]*Request, n)
	for i := range reqs {
		r := &Request{Switch: sw, Op: kinds[rng.Intn(len(kinds))], FlowID: uint32(i),
			Priority: uint16(1000 + rng.Intn(band)), HasPriority: true}
		if deadlines && rng.Intn(3) == 0 {
			r.InstallBy = time.Duration(1+rng.Intn(5)) * time.Millisecond
		}
		reqs[i] = r
	}
	return reqs
}

// residentOracle returns an ExistingHigher over a seeded resident rule set
// in the batches' priority bands. Sparse sets let a batch's early deletes
// out-count the resident rules above an add (the credited count goes ≤ 0
// and is clamped); dense ones never do.
func residentOracle(rng *rand.Rand) func(string, uint16) int {
	size := 200
	if rng.Intn(2) == 0 {
		size = 6
	}
	resident := make([]uint16, rng.Intn(size))
	for i := range resident {
		resident[i] = uint16(1000 + rng.Intn(10))
		if rng.Intn(2) == 0 {
			resident[i] = uint16(1000 + rng.Intn(4000))
		}
	}
	return func(_ string, p uint16) int {
		n := 0
		for _, q := range resident {
			if q > p {
				n++
			}
		}
		return n
	}
}

// TestPlanPricingDifferential is the gate that let the per-candidate pricing
// loop go: on seeded random batches plan's scores equal, element for
// element, the oracle's whole-sequence price of every materialised
// candidate; the ordering is the first-minimum candidate; and EstimateBatch
// is that minimum.
func TestPlanPricingDifferential(t *testing.T) {
	const batches = 2400
	var delsMattered, clamped int
	for seed := int64(0); seed < batches; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := pattern.NewDB()
		db.PutScore(randomCard("s", rng))
		tg := &Tango{DB: db, SortPriorities: seed%2 == 0, Metrics: telemetry.NewRegistry()}
		if seed%4 >= 2 {
			tg.ExistingHigher = residentOracle(rng)
		}
		sw := "s"
		if seed%16 == 15 {
			sw = "uncarded"
		}
		reqs := randomBatch(sw, rng)

		wantOrder, wantScores, wantCost := oraclePlan(tg, sw, reqs)
		gotOrder, gotScores, gotCost := tg.plan(new(orderScratch), tg.card(sw), sw, reqs, nil, nil)
		label := fmt.Sprintf("seed %d (%d reqs, sort=%v, oracle=%v)", seed, len(reqs), tg.SortPriorities, tg.ExistingHigher != nil)
		if !slices.Equal(gotScores, wantScores) {
			t.Fatalf("%s: scores\n got %v\nwant %v", label, gotScores, wantScores)
		}
		if gotCost != wantCost {
			t.Fatalf("%s: cost %v, want %v", label, gotCost, wantCost)
		}
		if !slices.Equal(gotOrder, wantOrder) {
			t.Fatalf("%s: ordering differs from the first-minimum candidate", label)
		}
		est, ok := tg.EstimateBatch(sw, reqs)
		if sw == "uncarded" {
			if ok || gotCost != -1 || len(gotScores) != 0 {
				t.Fatalf("%s: no-card fallback priced: cost %v, scores %v, estimate ok=%v", label, gotCost, gotScores, ok)
			}
			continue
		}
		if !ok || est != wantCost {
			t.Fatalf("%s: EstimateBatch = %v, %v, want %v", label, est, ok, wantCost)
		}
		candidates := 6
		if tg.SortPriorities {
			candidates = 12
		}
		if len(gotScores) != candidates {
			t.Fatalf("%s: %d candidates, want %d", label, len(gotScores), candidates)
		}
		// Coverage of the oracle's two regimes: candidate 0 runs the deletes
		// ahead of the adds and the last one behind them, in the same add
		// order.
		if wantScores[0] != wantScores[candidates-candidates/6] {
			delsMattered++
		}
		if tg.ExistingHigher != nil && addClamped(tg, sw, reqs) {
			clamped++
		}
	}
	if delsMattered < batches/20 || clamped < batches/40 {
		t.Fatalf("generator too tame: deletes moved the add cost in %d batches, could clamp it in %d", delsMattered, clamped)
	}
}

// addClamped reports whether the batch's deletes, run first, free at least
// as many higher-priority slots as the oracle says are resident above one of
// its adds — the case where the credited count reaches ≤ 0 and is clamped.
func addClamped(t *Tango, sw string, reqs []*Request) bool {
	for _, add := range reqs {
		if add.Op != pattern.OpAdd {
			continue
		}
		freed := 0
		for _, r := range reqs {
			if r.Op == pattern.OpDel && r.Priority > add.Priority {
				freed++
			}
		}
		if ex := t.ExistingHigher(sw, add.Priority); ex > 0 && ex <= freed {
			return true
		}
	}
	return false
}

// pricingGraph builds a layered random request DAG over the given switches.
func pricingGraph(switches []string, levels, perLevel int, rng *rand.Rand) *Graph {
	g := NewGraph()
	var prev []dag.NodeID
	for l := 0; l < levels; l++ {
		var cur []dag.NodeID
		for i := 0; i < perLevel; i++ {
			r := &Request{Switch: switches[rng.Intn(len(switches))], Op: pattern.OpKind(rng.Intn(3)),
				FlowID: uint32(l*perLevel + i), Priority: uint16(1000 + rng.Intn(40)), HasPriority: true}
			id := g.AddNode(r)
			cur = append(cur, id)
			for p := 0; l > 0 && p < 1+rng.Intn(2); p++ {
				_ = g.AddEdge(prev[rng.Intn(len(prev))], id)
			}
		}
		prev = cur
	}
	return g
}

// TestPlanPricingTelemetryDifferential drains the same graphs with Tango and
// with the oracle-priced scheduler and requires the pattern-score histogram
// — every sample, in order — and the run results to be identical, with and
// without the ExistingHigher oracle and the non-greedy extension's
// EstimateBatch calls.
func TestPlanPricingTelemetryDifferential(t *testing.T) {
	switches := []string{"a", "b", "c", "uncarded"}
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := pattern.NewDB()
		for _, sw := range switches[:3] {
			db.PutScore(randomCard(sw, rng))
		}
		exec := costExecutor{db}
		var existing func(string, uint16) int
		if seed%2 == 1 {
			existing = residentOracle(rng)
		}
		run := func(oracle bool) (*RunResult, telemetry.HistogramSnapshot) {
			reg := telemetry.NewRegistry()
			tg := &Tango{DB: db, SortPriorities: seed%3 != 0, ExistingHigher: existing, Metrics: reg}
			var s Scheduler = tg
			if oracle {
				s = oracleTango{tg, reg.Histogram("sched.pattern_score_ns")}
			}
			g := pricingGraph(switches, 8, 40, rand.New(rand.NewSource(seed)))
			res, err := Run(g, s, exec, RunOptions{Workers: 1, NonGreedy: seed >= 3, Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			return res, reg.Snapshot().Histograms["sched.pattern_score_ns"]
		}
		res, hist := run(false)
		wantRes, wantHist := run(true)
		if hist.Count == 0 {
			t.Fatalf("seed %d: no pattern scores recorded", seed)
		}
		if !reflect.DeepEqual(hist, wantHist) {
			t.Errorf("seed %d: pattern-score histogram diverged:\n got %+v\nwant %+v", seed, hist, wantHist)
		}
		if !reflect.DeepEqual(res, wantRes) {
			t.Errorf("seed %d: run result diverged:\n got %+v\nwant %+v", seed, res, wantRes)
		}
	}
}

// costExecutor is CardExecutor with a flat per-op cost for switches that
// have no card, so graphs may mix carded and uncarded switches.
type costExecutor struct{ db *pattern.DB }

func (x costExecutor) Execute(sw string, ops []pattern.Op) (time.Duration, error) {
	if card, ok := x.db.Score(sw); ok {
		return card.EstimateOps(ops, nil), nil
	}
	return time.Duration(len(ops)) * time.Millisecond, nil
}

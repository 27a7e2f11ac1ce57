package tango

// ablation_test.go holds EXPERIMENTS.md's ablation table as assertions: each
// row runs a design choice DESIGN.md calls out against its simpler
// alternative on virtual time and checks the direction of the result.
// (Greedy vs. non-greedy batching is sched.TestNonGreedyBatchingWins.)
//
//	go test -run TestAblations -v .

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"tango/internal/cluster"
	"tango/internal/core/infer"
	"tango/internal/core/pattern"
	"tango/internal/core/probe"
	"tango/internal/core/sched"
	"tango/internal/switchsim"
)

func TestAblations(t *testing.T) {
	for _, row := range []struct {
		name    string
		measure func(t *testing.T) (kept, alt float64)
		holds   func(kept, alt float64) bool
		claim   string
	}{
		{"RTT clustering: tiers found of 3, gap-split+k-means vs fixed k=2", clusterAblation,
			func(kept, alt float64) bool { return kept == 3 && alt == 2 }, "3 vs 2"},
		{"size estimator: err %, negative binomial vs stage-2 census", sizeAblation,
			func(kept, alt float64) bool { return kept <= 5 && alt <= kept }, "census <= negative binomial <= 5"},
		{"dependency handling: makespan s, round barriers vs concurrent + guard time", dependencyAblation,
			func(kept, alt float64) bool { return alt < kept }, "concurrent < barriers"},
		{"priority sorting: makespan s, on vs off", priorityAblation,
			func(kept, alt float64) bool { return kept < alt }, "on < off"},
	} {
		kept, alt := row.measure(t)
		t.Logf("%s: %.4g vs %.4g", row.name, kept, alt)
		if !row.holds(kept, alt) {
			t.Errorf("%s: got %.4g vs %.4g, want %s", row.name, kept, alt, row.claim)
		}
	}
}

// clusterAblation clusters a fabricated three-tier RTT population (Switch
// #1's tier means, ±5%). A fixed k=2 guess — what a controller would hardcode
// without the gap stage — merges the two slowest tiers.
func clusterAblation(t *testing.T) (kept, alt float64) {
	rng := rand.New(rand.NewSource(1))
	var xs []float64
	for _, c := range []float64{0.665, 3.7, 7.5} {
		for i := 0; i < 2000; i++ {
			xs = append(xs, c*(0.95+rng.Float64()*0.1))
		}
	}
	rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	found, err := cluster.Find(xs, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return float64(len(found.Clusters)), float64(fixedKTiers(xs, 2))
}

// fixedKTiers is the alternative cluster.Find is kept against: plain Lloyd's
// k-means into exactly k tiers, seeded at the quantiles, with no gap stage to
// choose k. It returns how many of the k tiers end up populated. It lives
// here, beside its one caller, not in the production package.
func fixedKTiers(xs []float64, k int) int {
	values := slices.Clone(xs)
	slices.Sort(values)
	centroids := make([]float64, k)
	for j := range centroids {
		centroids[j] = values[(2*j+1)*len(values)/(2*k)]
	}
	assign := make([]int, len(values))
	counts := make([]int, k)
	for it := 0; it < 64; it++ {
		changed := it == 0
		for i, v := range values {
			c := 0
			for j := range centroids {
				if math.Abs(centroids[j]-v) < math.Abs(centroids[c]-v) {
					c = j
				}
			}
			changed = changed || assign[i] != c
			assign[i] = c
		}
		if !changed {
			break
		}
		sums := make([]float64, k)
		clear(counts)
		for i, v := range values {
			sums[assign[i]] += v
			counts[assign[i]]++
		}
		for j := range centroids {
			if counts[j] > 0 {
				centroids[j] = sums[j] / float64(counts[j])
			}
		}
	}
	tiers := 0
	for _, n := range counts {
		if n > 0 {
			tiers++
		}
	}
	return tiers
}

// sizeAblation runs Algorithm 1 on a fresh 512-entry FIFO cache and compares
// the negative-binomial estimate's error with the stage-2 census's.
func sizeAblation(t *testing.T) (kept, alt float64) {
	p := switchsim.TestSwitch(512, switchsim.PolicyFIFO)
	p.SoftwareCapacity = 1536
	e := probe.NewEngine(probe.SimDevice{S: switchsim.New(p, switchsim.WithSeed(0))})
	res, err := infer.ProbeSizes(e, infer.SizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	errPct := func(n int) float64 { return 100 * math.Abs(float64(n-512)) / 512 }
	return errPct(res.Levels[0].Size), errPct(res.Levels[0].Census)
}

// dependencyAblation schedules 200 two-op chains spanning two switches with
// round barriers, then with the §6 concurrent cross-switch extension.
func dependencyAblation(t *testing.T) (kept, alt float64) {
	db := pattern.NewDB()
	for _, n := range []string{"s1", "s2"} {
		db.PutScore(&pattern.ScoreCard{
			SwitchName: n, AddSamePriority: time.Millisecond,
			AddNewPriority: time.Millisecond, Mod: 6 * time.Millisecond, Del: 2 * time.Millisecond,
		})
	}
	run := func(opts sched.RunOptions) float64 {
		g := sched.NewGraph()
		for f := 0; f < 200; f++ {
			a := g.AddNode(&sched.Request{Switch: "s1", Op: pattern.OpMod, FlowID: uint32(f), Priority: 100, HasPriority: true})
			b := g.AddNode(&sched.Request{Switch: "s2", Op: pattern.OpMod, FlowID: uint32(f), Priority: 100, HasPriority: true})
			if err := g.AddEdge(a, b); err != nil {
				t.Fatal(err)
			}
		}
		res, err := sched.Run(g, &sched.Tango{DB: db}, sched.CardExecutor{DB: db}, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan.Seconds()
	}
	return run(sched.RunOptions{}), run(sched.RunOptions{Concurrent: true, GuardTime: 500 * time.Microsecond})
}

// priorityAblation installs 800 descending-priority adds — the worst-case
// priority workload — on an emulated Switch #1 with sorting on, then off.
func priorityAblation(t *testing.T) (kept, alt float64) {
	db := pattern.NewDB()
	db.PutScore(&pattern.ScoreCard{
		SwitchName: "s1", AddSamePriority: 400 * time.Microsecond,
		AddNewPriority: 900 * time.Microsecond, ShiftPerEntry: 14 * time.Microsecond,
		Mod: 6 * time.Millisecond, Del: 2 * time.Millisecond,
	})
	run := func(sortPriorities bool) float64 {
		g := sched.NewGraph()
		for i := 0; i < 800; i++ {
			g.AddNode(&sched.Request{
				Switch: "s1", Op: pattern.OpAdd,
				FlowID: uint32(1000 + i), Priority: uint16(20000 - i), HasPriority: true,
			})
		}
		e := probe.NewEngine(probe.SimDevice{S: switchsim.New(switchsim.Switch1(), switchsim.WithSeed(1))})
		res, err := sched.Run(g, &sched.Tango{DB: db, SortPriorities: sortPriorities},
			sched.EngineExecutor{"s1": e}, sched.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan.Seconds()
	}
	return run(true), run(false)
}

package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"tango/internal/classbench"
	"tango/internal/core/infer"
	"tango/internal/core/pattern"
	"tango/internal/core/probe"
	"tango/internal/core/sched"
	"tango/internal/dag"
	"tango/internal/flowtable"
	"tango/internal/openflow"
	"tango/internal/switchsim"
	"tango/internal/topo"
	"tango/internal/update"
)

// Table2 reproduces Table 2: per ClassBench file, the flow count and the
// sizes of the two priority assignments, plus how many flows install.
func Table2() *Table {
	t := &Table{
		Title:  "Table 2: flows per ClassBench file and their priorities",
		Header: []string{"flow file", "topological priorities", "R priorities", "flows installed"},
	}
	for i, cfg := range classbench.Table2Configs {
		rs := classbench.Generate(cfg)
		installed := installClassbench(switchsim.OVS(), rs, rs.TopologicalPriorities(100), nil, int64(i)).installed
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("Classbench%d", i+1),
			fmt.Sprintf("%d", rs.NumTopoPriorities()),
			fmt.Sprintf("%d", len(rs.Rules)),
			fmt.Sprintf("%d", installed),
		})
	}
	return t
}

// installResult reports one ClassBench installation run.
type installResult struct {
	elapsed   time.Duration
	installed int
}

// installClassbench installs the rule set on a fresh switch of the given
// profile with the given priorities. order is the installation order (a
// permutation of rule indices); nil means ascending priority — the order
// Tango's probing engine recommends for every modelled hardware switch.
func installClassbench(prof switchsim.Profile, rs *classbench.RuleSet, prios []uint16, order []int, seed int64) installResult {
	s := switchsim.New(prof, switchsim.WithSeed(seed))
	if order == nil {
		order = ascendingByPriority(prios)
	}
	start := s.Now()
	installed := 0
	for _, i := range order {
		err := s.FlowMod(&openflow.FlowMod{
			Command:  openflow.FlowAdd,
			Match:    rs.Rules[i],
			Priority: prios[i],
			Actions:  flowtable.Output(1),
		})
		if err == nil {
			installed++
		}
	}
	return installResult{elapsed: s.Now().Sub(start), installed: installed}
}

// ascendingByPriority returns rule indices sorted by ascending priority,
// stable in rule order.
func ascendingByPriority(prios []uint16) []int {
	idx := make([]int, len(prios))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return prios[idx[a]] < prios[idx[b]] })
	return idx
}

// classbenchScenarios runs the four §7.1 scheduling scenarios for one rule
// file on one profile, over `runs` seeds, and returns one series per
// scenario (x = run index, y = seconds).
func classbenchScenarios(prof switchsim.Profile, cfg classbench.Options, runs int, optLabel string) []Series {
	rs := classbench.Generate(cfg)
	topoP := rs.TopologicalPriorities(100)
	rP := rs.RPriorities(100)
	type scenario struct {
		name   string
		prios  []uint16
		random bool
	}
	scenarios := []scenario{
		{"Topo " + optLabel, topoP, false},
		{"R " + optLabel, rP, false},
		{"R Rand", rP, true},
		{"Topo Rand", topoP, true},
	}
	out := make([]Series, len(scenarios))
	for si, sc := range scenarios {
		out[si].Name = sc.name
		for run := 0; run < runs; run++ {
			var order []int
			if sc.random {
				rng := rand.New(rand.NewSource(int64(run)*977 + cfg.Seed))
				order = rng.Perm(len(rs.Rules))
			}
			res := installClassbench(prof, rs, sc.prios, order, int64(run))
			out[si].X = append(out[si].X, float64(run+1))
			out[si].Y = append(out[si].Y, seconds(res.elapsed))
		}
	}
	return out
}

// Figure8 reproduces Figure 8(a–c): ClassBench installation time on OVS for
// the four priority-assignment × installation-order scenarios, 10 runs each.
func Figure8(runs int) []*Figure {
	if runs <= 0 {
		runs = 10
	}
	var out []*Figure
	for i, cfg := range classbench.Table2Configs {
		fig := &Figure{Title: fmt.Sprintf("Figure 8(%c): OVS optimization results (Classbench %d)", 'a'+i, i+1)}
		fig.Series = classbenchScenarios(switchsim.OVS(), cfg, runs, "Opt")
		out = append(out, fig)
	}
	return out
}

// Figure9 reproduces Figure 9(a–c): the same scenarios on HW Switch #1,
// where ascending-priority installation wins by a large margin.
func Figure9(runs int) []*Figure {
	if runs <= 0 {
		runs = 10
	}
	var out []*Figure
	for i, cfg := range classbench.Table2Configs {
		fig := &Figure{Title: fmt.Sprintf("Figure 9(%c): HW Switch #1 optimization results (Classbench %d)", 'a'+i, i+1)}
		fig.Series = classbenchScenarios(bigSwitch1(), cfg, runs, "Asc")
		out = append(out, fig)
	}
	return out
}

// TestbedProfiles returns the triangle testbed's per-switch profiles:
// s1 and s2 from Vendor #1, s3 from Vendor #3 (§7.2). The emulated probe
// rules are double-wide (L2+L3) whereas the paper's testbed rules were
// single-wide, so s3's TCAM is sized at its single-wide depth scaled to
// hold the scenario's preload plus 400 reroute adds — its cost model, which
// is what the experiment measures, is unchanged.
func TestbedProfiles() map[string]switchsim.Profile {
	s3 := switchsim.Switch3().WithTCAMCapacity(2048)
	return map[string]switchsim.Profile{
		"s1": bigSwitch1(),
		"s2": bigSwitch1(),
		"s3": s3,
	}
}

// BuildScoreDB probes each profile with the cost patterns and returns the
// Tango score database — the measured input the scheduler optimizes with.
func BuildScoreDB(profiles map[string]switchsim.Profile) *pattern.DB {
	db := pattern.NewDB()
	for name, prof := range profiles {
		s := switchsim.New(prof, switchsim.WithSeed(77))
		e := probe.NewEngine(probe.SimDevice{S: s})
		card, err := infer.MeasureCosts(e, name, infer.CostOptions{})
		if err != nil {
			panic(fmt.Sprintf("score DB probe for %s: %v", name, err))
		}
		db.PutScore(card)
	}
	return db
}

// PreloadSpec describes the rules resident on one switch before a scenario:
// modTargets flows [0, ModTargets) at priority 100 (cheap rules scheduled
// for modification) and delTargets flows [delTargetBase, …) at priority
// delTargetPriority — high-priority rules scheduled for deletion, whose
// residency is exactly what makes delete-before-add orderings pay off.
type PreloadSpec struct {
	ModTargets int
	DelTargets int
}

const (
	delTargetBase     = 5000
	delTargetPriority = 3000
)

// ExecutorFor builds fresh per-switch engines with the scenario's preloaded
// rules installed.
func ExecutorFor(profiles map[string]switchsim.Profile, preload map[string]PreloadSpec, seed int64) sched.EngineExecutor {
	ex := sched.EngineExecutor{}
	for name, prof := range profiles {
		s := switchsim.New(prof, switchsim.WithSeed(seed))
		e := probe.NewEngine(probe.SimDevice{S: s})
		preloadRules(e, preload[name])
		ex[name] = e
	}
	return ex
}

// preloadRules installs spec's resident rules through e, stopping each run
// at the first rejection (a full table keeps what fit).
func preloadRules(e *probe.Engine, spec PreloadSpec) {
	for i := 0; i < spec.ModTargets; i++ {
		if err := e.Install(uint32(i), 100); err != nil {
			break
		}
	}
	for i := 0; i < spec.DelTargets; i++ {
		if err := e.Install(uint32(delTargetBase+i), delTargetPriority); err != nil {
			break
		}
	}
}

// ExistingHigherFor returns the controller's table-state oracle for the
// scenario: how many resident rules out-prioritise p on each switch.
func ExistingHigherFor(preload map[string]PreloadSpec) func(string, uint16) int {
	return func(sw string, p uint16) int {
		spec := preload[sw]
		n := 0
		if p < delTargetPriority {
			n += spec.DelTargets
		}
		if p < 100 {
			n += spec.ModTargets
		}
		return n
	}
}

// LFScenario builds the Link Failure scenario: the s1–s2 link fails and
// `flows` existing flows reroute via s3. Per flow: a new rule on s3 must be
// added before the source switch s1 is modified (reverse-path order).
// Each flow carries an app-specified priority.
func LFScenario(flows int, seed int64) (*sched.Graph, map[string]PreloadSpec) {
	g := sched.NewGraph()
	rng := rand.New(rand.NewSource(seed))
	prios := rng.Perm(flows)
	for f := 0; f < flows; f++ {
		p := uint16(1000 + prios[f])
		add := g.AddNode(&sched.Request{
			Switch: "s3", Op: pattern.OpAdd,
			FlowID: uint32(10000 + f), Priority: p, HasPriority: true,
		})
		mod := g.AddNode(&sched.Request{
			Switch: "s1", Op: pattern.OpMod,
			FlowID: uint32(f), Priority: 100, HasPriority: true,
		})
		if err := g.AddEdge(add, mod); err != nil {
			panic(err)
		}
	}
	return g, map[string]PreloadSpec{"s1": {ModTargets: flows}, "s2": {ModTargets: flows}}
}

// TEScenario builds a Traffic Engineering scenario on the triangle: total
// requests split across add/mod/del with the given ratio (adds:mods:dels),
// arriving interleaved (as per-flow TE decisions do), spread across the
// three switches, with a fraction forming reverse-path cross-switch chains.
// It also returns the per-switch preload the scenario assumes: mod targets
// at low priority and del targets at high priority.
func TEScenario(total int, addRatio, modRatio, delRatio int, seed int64) (*sched.Graph, map[string]PreloadSpec) {
	g := sched.NewGraph()
	rng := rand.New(rand.NewSource(seed))
	switches := []string{"s1", "s2", "s3"}
	sum := addRatio + modRatio + delRatio
	preload := map[string]PreloadSpec{}

	// Interleaved arrival: each request's type is drawn by the ratio, so a
	// diversity-oblivious scheduler issues them interleaved while Tango's
	// pattern oracle regroups them.
	kinds := make([]pattern.OpKind, 0, total)
	for i := 0; i < total; i++ {
		r := rng.Intn(sum)
		switch {
		case r < addRatio:
			kinds = append(kinds, pattern.OpAdd)
		case r < addRatio+modRatio:
			kinds = append(kinds, pattern.OpMod)
		default:
			kinds = append(kinds, pattern.OpDel)
		}
	}
	var ids []dag.NodeID
	for i, kind := range kinds {
		sw := switches[rng.Intn(3)]
		spec := preload[sw]
		r := &sched.Request{Switch: sw, Op: kind, HasPriority: true}
		switch kind {
		case pattern.OpAdd:
			r.FlowID = uint32(20000 + i)
			r.Priority = uint16(1000 + rng.Intn(total))
		case pattern.OpMod:
			r.FlowID = uint32(spec.ModTargets)
			r.Priority = 100
			spec.ModTargets++
		case pattern.OpDel:
			r.FlowID = uint32(delTargetBase + spec.DelTargets)
			r.Priority = delTargetPriority
			spec.DelTargets++
		}
		preload[sw] = spec
		ids = append(ids, g.AddNode(r))
	}
	// ~20% of requests chain after another request on a different switch
	// (reverse-path consistency).
	for i, id := range ids {
		if rng.Float64() > 0.2 {
			continue
		}
		j := rng.Intn(len(ids))
		if i == j || g.Payload(id).Switch == g.Payload(ids[j]).Switch {
			continue
		}
		_ = g.AddEdge(ids[j], id) // cycle-safe: errors ignored
	}
	return g, preload
}

// Figure10 reproduces Figure 10: LF, TE1, TE2 on the hardware testbed,
// comparing Dionysus, Tango with the rule-type pattern only, and Tango with
// type + priority patterns.
func Figure10() *Table {
	profiles := TestbedProfiles()
	db := BuildScoreDB(profiles)
	t := &Table{
		Title:  "Figure 10: hardware testbed network-wide optimization",
		Header: []string{"scenario", "Dionysus", "Tango (Type)", "Tango (Type+Priority)", "improvement"},
	}
	scenarios := []struct {
		name  string
		build func(seed int64) (*sched.Graph, map[string]PreloadSpec)
	}{
		{"LF", func(seed int64) (*sched.Graph, map[string]PreloadSpec) { return LFScenario(400, seed) }},
		{"TE 1", func(seed int64) (*sched.Graph, map[string]PreloadSpec) { return TEScenario(800, 2, 1, 1, seed) }},
		{"TE 2", func(seed int64) (*sched.Graph, map[string]PreloadSpec) { return TEScenario(800, 1, 1, 1, seed) }},
	}
	for _, sc := range scenarios {
		run := func(s sched.Scheduler) time.Duration {
			g, preload := sc.build(1)
			ex := ExecutorFor(profiles, preload, 5)
			res, err := sched.Run(g, s, ex, sched.RunOptions{})
			if err != nil {
				panic(err)
			}
			return res.Makespan
		}
		_, preload := sc.build(1)
		existing := ExistingHigherFor(preload)
		dio := run(sched.Dionysus{})
		typ := run(&sched.Tango{DB: db, ExistingHigher: existing})
		full := run(&sched.Tango{DB: db, SortPriorities: true, ExistingHigher: existing})
		imp := 1 - full.Seconds()/dio.Seconds()
		t.Rows = append(t.Rows, []string{sc.name, fmtDur(dio), fmtDur(typ), fmtDur(full), fmtPct(imp)})
	}
	return t
}

// Figure11 reproduces Figure 11: priority sorting versus priority
// enforcement across four workload shapes.
func Figure11() *Table {
	profiles := TestbedProfiles()
	db := BuildScoreDB(profiles)
	t := &Table{
		Title:  "Figure 11: priority sorting vs priority enforcement",
		Header: []string{"scenario", "Dionysus", "Tango (Priority Sorting)", "Tango (Priority Enforcement)"},
	}
	scenarios := []struct {
		name   string
		total  int
		mixed  bool
		levels int
	}{
		{"add, DAG=1, 2.4K", 2400, false, 1},
		{"mixed, DAG=1, 2.4K", 2400, true, 1},
		{"mixed, DAG=2, 2.4K", 2400, true, 2},
		{"mixed, DAG=2, 3.2K", 3200, true, 2},
	}
	for _, sc := range scenarios {
		build := func(withPriorities bool) (*sched.Graph, map[string]PreloadSpec) {
			return figure11Graph(sc.total, sc.mixed, sc.levels, withPriorities, 3)
		}
		run := func(s sched.Scheduler, g *sched.Graph, preload map[string]PreloadSpec) time.Duration {
			ex := ExecutorFor(profiles, preload, 5)
			res, err := sched.Run(g, s, ex, sched.RunOptions{})
			if err != nil {
				panic(err)
			}
			return res.Makespan
		}
		gd, pd := build(true)
		dio := run(sched.Dionysus{}, gd, pd)
		gs, ps := build(true)
		sorting := run(&sched.Tango{DB: db, SortPriorities: true, ExistingHigher: ExistingHigherFor(ps)}, gs, ps)
		gEnf, pe := build(false)
		sched.EnforcePriorities(gEnf, 1000)
		enforcement := run(&sched.Tango{DB: db, SortPriorities: true, ExistingHigher: ExistingHigherFor(pe)}, gEnf, pe)
		t.Rows = append(t.Rows, []string{sc.name, fmtDur(dio), fmtDur(sorting), fmtDur(enforcement)})
	}
	return t
}

// figure11Graph builds one Figure 11 workload: adds (plus mods/dels when
// mixed) spread across the triangle, in `levels` dependency levels. With
// withPriorities, adds get unique R-style priorities; otherwise they are
// left unassigned for enforcement.
func figure11Graph(total int, mixed bool, levels int, withPriorities bool, seed int64) (*sched.Graph, map[string]PreloadSpec) {
	g := sched.NewGraph()
	rng := rand.New(rand.NewSource(seed))
	switches := []string{"s1", "s2", "s3"}
	preload := map[string]PreloadSpec{}
	prios := rng.Perm(total)
	var prevLevel []dag.NodeID
	perLevel := total / levels
	idx := 0
	for lvl := 0; lvl < levels; lvl++ {
		var cur []dag.NodeID
		count := perLevel
		if lvl == levels-1 {
			count = total - idx
		}
		for i := 0; i < count; i++ {
			sw := switches[idx%3]
			spec := preload[sw]
			op := pattern.OpAdd
			flow := uint32(30000 + idx)
			prio := uint16(1000 + prios[idx])
			if mixed {
				switch idx % 4 {
				case 1:
					op = pattern.OpMod
					flow = uint32(spec.ModTargets)
					prio = 100
					spec.ModTargets++
				case 3:
					op = pattern.OpDel
					flow = uint32(delTargetBase + spec.DelTargets)
					prio = delTargetPriority
					spec.DelTargets++
				}
			}
			preload[sw] = spec
			r := &sched.Request{
				Switch: sw, Op: op, FlowID: flow,
				Priority: prio, HasPriority: true,
			}
			if op == pattern.OpAdd && !withPriorities {
				r.Priority = 0
				r.HasPriority = false
			}
			id := g.AddNode(r)
			cur = append(cur, id)
			if lvl > 0 {
				parent := prevLevel[rng.Intn(len(prevLevel))]
				_ = g.AddEdge(parent, id)
			}
			idx++
		}
		prevLevel = cur
	}
	return g, preload
}

// Figure12 reproduces Figure 12: a B4-wide traffic-engineering change on
// OVS switches (the Mininet emulation), Dionysus versus Tango.
func Figure12(flows int) *Table {
	if flows <= 0 {
		flows = 2200
	}
	g := topo.B4()
	nodes := g.Nodes()
	rng := rand.New(rand.NewSource(4))

	// Demands and initial shortest-path allocation.
	demands := make([]topo.Demand, flows)
	oldAlloc := topo.Allocation{}
	for i := range demands {
		src := nodes[rng.Intn(len(nodes))]
		dst := nodes[rng.Intn(len(nodes))]
		for dst == src {
			dst = nodes[rng.Intn(len(nodes))]
		}
		demands[i] = topo.Demand{FlowID: uint32(i), Src: src, Dst: dst, Rate: float64(1 + rng.Intn(5))}
		oldAlloc[uint32(i)] = g.ShortestPath(src, dst)
	}
	oldRates := topo.MaxMinFair(g, oldAlloc, demands)

	// Traffic-matrix change: demands double for half the flows; the TE
	// controller moves rate-starved flows to their second path.
	newAlloc := topo.Allocation{}
	for i := range demands {
		f := uint32(i)
		newAlloc[f] = oldAlloc[f]
		if i%2 == 0 {
			demands[i].Rate *= 3
		}
		if oldRates[f] < demands[i].Rate {
			if alts := g.KShortestPaths(demands[i].Src, demands[i].Dst, 2); len(alts) == 2 {
				newAlloc[f] = alts[1]
			}
		}
	}
	changes := topo.DiffAssignments(oldAlloc, newAlloc)

	// Per-site OVS engines and a measured score database.
	profiles := map[string]switchsim.Profile{}
	for _, n := range nodes {
		p := switchsim.OVS()
		p.Name = n
		profiles[n] = p
	}
	db := BuildScoreDB(map[string]switchsim.Profile{"b4-01": profiles["b4-01"]})
	card, _ := db.Score("b4-01")
	for _, n := range nodes {
		c := *card
		c.SwitchName = n
		db.PutScore(&c)
	}

	run := func(s sched.Scheduler) time.Duration {
		gCopy, err := update.Plan(changes, update.PlanOptions{AssignPriorities: true, Seed: 9})
		if err != nil {
			panic(err)
		}
		ex := ExecutorFor(profiles, nil, 9)
		res, err := sched.Run(gCopy, s, ex, sched.RunOptions{})
		if err != nil {
			panic(err)
		}
		return res.Makespan
	}
	dio := run(sched.Dionysus{})
	tango := run(&sched.Tango{DB: db, SortPriorities: true})
	imp := 1 - tango.Seconds()/dio.Seconds()
	return &Table{
		Title:  fmt.Sprintf("Figure 12: B4/OVS TE optimization (%d flows, %d rule changes)", flows, len(changes)),
		Header: []string{"scheduler", "installation time", "improvement"},
		Rows: [][]string{
			{"Dionysus", fmtDur(dio), "-"},
			{"Tango", fmtDur(tango), fmtPct(imp)},
		},
	}
}

// SchedWorkload builds a large synthetic scheduling workload for benchmarks
// and differential tests: `total` requests spread round-robin over
// `switches` switches in `levels` dependency levels (the Figure 11 DAG-depth
// parameterisation), with a mixed add/mod/del op stream and seeded random
// priorities and cross-level dependencies. The returned score database holds
// one hardware-style card per switch with per-switch cost variation, so the
// pattern oracle has real choices to make.
func SchedWorkload(switches, total, levels int, seed int64) (*sched.Graph, *pattern.DB) {
	if switches <= 0 || total <= 0 || levels <= 0 {
		panic("experiments: SchedWorkload needs positive sizes")
	}
	names := make([]string, switches)
	for s := range names {
		names[s] = fmt.Sprintf("bench-%02d", s)
	}
	rng := rand.New(rand.NewSource(seed))
	g := sched.NewGraph()
	var prevLevel []dag.NodeID
	perLevel := total / levels
	idx := 0
	for lvl := 0; lvl < levels; lvl++ {
		count := perLevel
		if lvl == levels-1 {
			count = total - idx
		}
		cur := make([]dag.NodeID, 0, count)
		for i := 0; i < count; i++ {
			r := &sched.Request{Switch: names[idx%switches], HasPriority: true}
			switch rng.Intn(4) {
			case 0:
				r.Op = pattern.OpMod
				r.FlowID = uint32(idx)
				r.Priority = 100
			case 1:
				r.Op = pattern.OpDel
				r.FlowID = uint32(delTargetBase + idx)
				r.Priority = delTargetPriority
			default:
				r.Op = pattern.OpAdd
				r.FlowID = uint32(50000 + idx)
				r.Priority = uint16(1000 + rng.Intn(total))
			}
			id := g.AddNode(r)
			cur = append(cur, id)
			if lvl > 0 {
				// One or two parents from the previous level keep the DAG
				// connected without letting edge count explode.
				for p := 0; p < 1+rng.Intn(2); p++ {
					parent := prevLevel[rng.Intn(len(prevLevel))]
					_ = g.AddEdge(parent, id)
				}
			}
			idx++
		}
		prevLevel = cur
	}
	db := pattern.NewDB()
	for s := 0; s < switches; s++ {
		v := time.Duration(s)
		db.PutScore(&pattern.ScoreCard{
			SwitchName:      names[s],
			AddSamePriority: 400*time.Microsecond + v*3*time.Microsecond,
			AddNewPriority:  900*time.Microsecond + v*5*time.Microsecond,
			ShiftPerEntry:   14*time.Microsecond + v*time.Microsecond/4,
			Mod:             6*time.Millisecond + v*20*time.Microsecond,
			Del:             2*time.Millisecond + v*10*time.Microsecond,
			TypeSwitch:      300*time.Microsecond + v*2*time.Microsecond,
		})
	}
	return g, db
}

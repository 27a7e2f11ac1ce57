package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"tango/internal/core/infer"
	"tango/internal/core/pattern"
	"tango/internal/core/probe"
	"tango/internal/flowtable"
	"tango/internal/openflow"
	"tango/internal/parallel"
	"tango/internal/switchsim"
)

// Table1 reproduces Table 1: for each switch, the software-table situation
// and the number of hardware (TCAM) entries it holds for L2-only/L3-only
// versus combined L2+L3 matches. Switch #1's TCAM mode is user
// configurable, so its narrow column uses single-wide mode and its wide
// column double-wide mode, as in the paper.
func Table1(o Options) *Table {
	t := &Table{
		Title:  "Table 1: diversity of tables and table sizes",
		Header: []string{"switch", "software tables", "TCAM L2/L3", "TCAM L2+L3"},
	}
	type row struct {
		name         string
		narrow, wide switchsim.Profile
	}
	rows := []row{
		{"OVS", switchsim.OVS(), switchsim.OVS()},
		{"Switch#1", switchsim.Switch1Mode(flowtable.ModeSingleWide), switchsim.Switch1Mode(flowtable.ModeDoubleWide)},
		{"Switch#2", switchsim.Switch2(), switchsim.Switch2()},
		{"Switch#3", switchsim.Switch3(), switchsim.Switch3()},
	}
	const budget = 6000
	out := make([][]string, len(rows))
	parallel.ForEach(len(rows), o.Workers, func(i int) {
		r := rows[i]
		nTCAM := tcamResidency(r.narrow, false, budget)
		wTCAM := tcamResidency(r.wide, true, budget)
		var soft string
		switch r.narrow.Kind {
		case switchsim.ManageTCAMOnly:
			soft = "None"
		default:
			soft = "<inf"
		}
		nStr, wStr := fmt.Sprintf("%d", nTCAM), fmt.Sprintf("%d", wTCAM)
		if r.narrow.Kind == switchsim.ManageMicroflow {
			nStr, wStr = "<inf (kernel)", "<inf (kernel)"
		}
		out[i] = []string{r.name, soft, nStr, wStr}
	})
	t.Rows = append(t.Rows, out...)
	return t
}

// tcamResidency installs rules of the given width until rejection or the
// budget and returns how many landed in the hardware table.
func tcamResidency(p switchsim.Profile, wide bool, budget int) int {
	s := switchsim.New(p, switchsim.WithSeed(1))
	for id := uint32(0); int(id) < budget; id++ {
		var m flowtable.Match
		if wide {
			m = flowtable.ExactProbeMatch(id)
		} else {
			m = flowtable.L3ProbeMatch(id)
		}
		err := s.FlowMod(&openflow.FlowMod{
			Command:  openflow.FlowAdd,
			Match:    m,
			Priority: 100,
			Actions:  flowtable.Output(1),
		})
		if err != nil {
			break
		}
	}
	tcam, _, _ := s.RuleCount()
	return tcam
}

// Figure2 reproduces Figure 2: per-flow forwarding delay versus flow ID on
// OVS (a), Switch #1 (b), and Switch #2 (c). Matching flows occupy the low
// IDs; flows beyond the installed rules punt to the controller. Each flow
// sends two packets; both delays are reported, which is what separates the
// OVS slow-then-fast microflow signature from Switch #1's traffic-
// independent FIFO placement.
func Figure2() []*Figure {
	type scenario struct {
		profile switchsim.Profile
		opts    []switchsim.Option
		rules   int
		flows   int
		caption string
	}
	scenarios := []scenario{
		{profile: switchsim.OVS(), rules: 80, flows: 160, caption: "Figure 2(a): three-tier delay in OVS"},
		{profile: switchsim.Switch1(), opts: []switchsim.Option{switchsim.WithDefaultRoute()}, rules: 3500, flows: 5000,
			caption: "Figure 2(b): three-tier delay in Switch #1"},
		{profile: switchsim.Switch2(), rules: 2500, flows: 5000, caption: "Figure 2(c): two-tier delay in Switch #2"},
	}
	var out []*Figure
	for _, sc := range scenarios {
		s := switchsim.New(sc.profile, append(sc.opts, switchsim.WithSeed(7))...)
		e := probe.NewEngine(probe.SimDevice{S: s})
		for id := 0; id < sc.rules; id++ {
			if err := e.Install(uint32(id), 100); err != nil {
				break // Switch #2's TCAM caps below 2500+preinstalled
			}
		}
		fig := &Figure{Title: sc.caption}
		first := Series{Name: "packet 1 delay (ms)"}
		second := Series{Name: "packet 2 delay (ms)"}
		for id := 0; id < sc.flows; id++ {
			r1, _, err := e.Probe(uint32(id))
			if err != nil {
				continue
			}
			r2, _, err := e.Probe(uint32(id))
			if err != nil {
				continue
			}
			first.X = append(first.X, float64(id))
			first.Y = append(first.Y, msec(r1))
			second.X = append(second.X, float64(id))
			second.Y = append(second.Y, msec(r2))
		}
		fig.Series = []Series{first, second}
		out = append(out, fig)
	}
	return out
}

// Figure3a reproduces Figure 3(a): total time for 200 adds + 200 mods +
// 200 dels on Switch #1 (1000 random-priority rules preinstalled), across
// all six type permutations, averaged over repeat runs.
func Figure3a(repeats int) *Table {
	if repeats <= 0 {
		repeats = 10
	}
	t := &Table{
		Title:  "Figure 3(a): rule installation sequences on Switch #1 (200 add/mod/del)",
		Header: []string{"scenario", "mean install time", "min", "max"},
	}
	for _, perm := range pattern.Permutations3 {
		var total, min, max time.Duration
		for rep := 0; rep < repeats; rep++ {
			d := runPermutation(perm, rep)
			total += d
			if rep == 0 || d < min {
				min = d
			}
			if d > max {
				max = d
			}
		}
		mean := total / time.Duration(repeats)
		name := fmt.Sprintf("%s_%s_%s", perm[0], perm[1], perm[2])
		t.Rows = append(t.Rows, []string{name, fmtDur(mean), fmtDur(min), fmtDur(max)})
	}
	return t
}

// runPermutation executes one Figure 3(a) trial.
func runPermutation(perm [3]pattern.OpKind, seed int) time.Duration {
	rng := rand.New(rand.NewSource(int64(seed) + 42))
	s := switchsim.New(switchsim.Switch1(), switchsim.WithSeed(int64(seed)))
	e := probe.NewEngine(probe.SimDevice{S: s})
	// Preinstall 1000 rules with random priorities.
	for id := uint32(0); id < 1000; id++ {
		if err := e.Install(id, uint16(1000+rng.Intn(1000))); err != nil {
			panic(err)
		}
	}
	p := pattern.Permutation(perm, 200, 200, 200, 1500)
	// The mod and del targets sit above the new adds' priority band
	// (as ACL updates usually do: retire old high-priority rules, insert
	// replacements below); deleting them first spares the adds their
	// shifts, which is what separates the six permutations.
	for i := uint32(0); i < 400; i++ {
		if err := e.Install(2000+i, 2500); err != nil {
			panic(err)
		}
	}
	for i, op := range p.Ops {
		if op.Kind != pattern.OpAdd {
			p.Ops[i].FlowID += 2000
			p.Ops[i].Priority = 2500
		}
	}
	res, err := e.Run(p)
	if err != nil {
		panic(err)
	}
	return res.Total
}

// Figure3b reproduces Figure 3(b): total time to add n new rules versus
// modify n existing rules, on Switch #1 and OVS, n ∈ counts.
func Figure3b(counts []int) *Figure {
	if len(counts) == 0 {
		counts = []int{20, 100, 500, 1000, 2000, 3500, 5000}
	}
	fig := &Figure{Title: "Figure 3(b): add vs modify flow delay"}
	for _, prof := range []switchsim.Profile{bigSwitch1(), switchsim.OVS()} {
		add := Series{Name: "add flow (" + prof.Name + ")"}
		mod := Series{Name: "mod flow (" + prof.Name + ")"}
		for _, n := range counts {
			// Adds in descending priority order — the worst case a diversity
			// oblivious controller hits, and the regime where the paper's
			// 6x mod-vs-add gap at 5000 rules appears.
			s := switchsim.New(prof, switchsim.WithSeed(int64(n)))
			e := probe.NewEngine(probe.SimDevice{S: s})
			ops := make([]pattern.Op, n)
			for i := 0; i < n; i++ {
				ops[i] = pattern.Op{Kind: pattern.OpAdd, FlowID: uint32(i), Priority: uint16(20000 - i)}
			}
			res, err := e.Run(pattern.Pattern{Name: "fig3b/add", Ops: ops})
			if err != nil {
				panic(err)
			}
			add.X = append(add.X, float64(n))
			add.Y = append(add.Y, seconds(res.Total))

			// Mods over the now-installed rules.
			mops := make([]pattern.Op, n)
			for i := 0; i < n; i++ {
				mops[i] = pattern.Op{Kind: pattern.OpMod, FlowID: uint32(i), Priority: uint16(20000 - i)}
			}
			res, err = e.Run(pattern.Pattern{Name: "fig3b/mod", Ops: mops})
			if err != nil {
				panic(err)
			}
			mod.X = append(mod.X, float64(n))
			mod.Y = append(mod.Y, seconds(res.Total))
		}
		fig.Series = append(fig.Series, add, mod)
	}
	return fig
}

// Figure3c reproduces Figure 3(c): installation time for the four priority
// orderings on Switch #1 and OVS, via the probing engine's priority-curve
// pattern (infer.MeasurePriorityCurves).
func Figure3c(counts []int) *Figure {
	if len(counts) == 0 {
		counts = []int{20, 100, 500, 1000, 2000, 3500, 5000}
	}
	fig := &Figure{Title: "Figure 3(c): flow installation time by priority pattern"}
	for _, prof := range []switchsim.Profile{bigSwitch1(), switchsim.OVS()} {
		s := switchsim.New(prof, switchsim.WithSeed(17))
		e := probe.NewEngine(probe.SimDevice{S: s})
		curves, err := infer.MeasurePriorityCurves(e, infer.CurveOptions{Counts: counts, Seed: 7})
		if err != nil {
			panic(err)
		}
		for _, order := range pattern.Orders {
			ser := Series{Name: fmt.Sprintf("%s priority (%s)", order, prof.Name)}
			for _, pt := range curves[order] {
				ser.X = append(ser.X, float64(pt.N))
				ser.Y = append(ser.Y, seconds(pt.Total))
			}
			fig.Series = append(fig.Series, ser)
		}
	}
	return fig
}

// bigSwitch1 is Switch #1 with its software table widened so the 5000-rule
// sweeps of Figure 3 fit (the paper's switch holds 256 virtual user-space
// tables; the exact bound is immaterial to the control-channel curves).
func bigSwitch1() switchsim.Profile {
	p := switchsim.Switch1()
	p.SoftwareCapacity = 16384
	return p
}

// Figure5 reproduces Figure 5: per-flow RTTs on the Switch #2 style device
// whose TCAM splits into two fast banks, with ~2500 installed flows.
func Figure5() *Figure {
	p := switchsim.FigureFiveSwitch()
	s := switchsim.New(p, switchsim.WithSeed(11))
	e := probe.NewEngine(probe.SimDevice{S: s})
	const flows = 2500
	for id := uint32(0); id < flows; id++ {
		if err := e.Install(id, 100); err != nil {
			break
		}
	}
	ser := Series{Name: "RTT (1e-2 ms) vs flow id"}
	for id := uint32(0); id < flows; id++ {
		rtt, _, err := e.Probe(id)
		if err != nil {
			continue
		}
		ser.X = append(ser.X, float64(id))
		// The paper's y axis is in units of 10^-2 ms.
		ser.Y = append(ser.Y, msec(rtt)*100)
	}
	return &Figure{Title: "Figure 5: round-trip times for flows installed in HW Switch #2", Series: []Series{ser}}
}

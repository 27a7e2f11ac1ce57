package experiments

import (
	"fmt"

	"tango/internal/core/infer"
	"tango/internal/core/probe"
	"tango/internal/parallel"
	"tango/internal/switchsim"
)

// namedPolicy is one cell of a policy sweep.
type namedPolicy struct {
	name   string
	policy switchsim.Policy
}

// policyMatrix is the policy sweep of the §7.1 inference evaluation.
func policyMatrix() []namedPolicy {
	return []namedPolicy{
		{"FIFO", switchsim.PolicyFIFO},
		{"LRU", switchsim.PolicyLRU},
		{"LFU", switchsim.PolicyLFU},
		{"Priority", switchsim.PolicyPriority},
	}
}

// policyMatrixExtended adds LEX composites beyond the named policies to the
// inference sweep (the model space of §5.1 is all attribute permutations).
func policyMatrixExtended() []namedPolicy {
	out := policyMatrix()
	out = append(out, namedPolicy{"Traffic+FIFO", switchsim.Policy{Keys: []switchsim.SortKey{
		{Attr: switchsim.AttrTraffic, HighIsBetter: true},
		{Attr: switchsim.AttrInsertion, HighIsBetter: false},
	}}})
	return out
}

// SizeAccuracy reproduces the §7.1 headline: flow-table size inference
// within 5% of actual values across switch designs and caching algorithms.
// Each row is one (design, policy, cache size) cell with the actual TCAM
// size, the negative-binomial estimate, the census estimate, and errors.
func SizeAccuracy(o Options) *Table {
	t := &Table{
		Title:  "Size inference accuracy (paper headline: <5% error)",
		Header: []string{"switch", "policy", "actual", "estimate", "err", "census", "census err"},
	}
	type cell struct {
		name   string
		prof   switchsim.Profile
		actual int
	}
	var cells []cell
	// TCAM-only designs at their Table 1 capacities.
	cells = append(cells,
		cell{"Switch#2", switchsim.Switch2(), 2560},
		cell{"Switch#3 (wide rules)", switchsim.Switch3(), 369},
	)
	// Policy-cache designs across the caching-algorithm matrix.
	for _, pm := range policyMatrix() {
		p := switchsim.TestSwitch(512, pm.policy)
		p.SoftwareCapacity = 1536
		p.Name = "cache-switch/" + pm.name
		cells = append(cells, cell{p.Name, p, 512})
	}
	// Switch #1 with its default route occupying a slot (Figure 2(b)).
	s1 := switchsim.Switch1()
	s1.SoftwareCapacity = 4096
	cells = append(cells, cell{"Switch#1 (+default route)", s1, 2047})

	// One worker-pool cell per (design, policy) profile; each builds its own
	// seeded switch and engine, and the rows fold back in catalog order.
	rows := make([][]string, len(cells))
	parallel.ForEach(len(cells), o.Workers, func(i int) {
		c := cells[i]
		var opts []switchsim.Option
		opts = append(opts, switchsim.WithSeed(int64(i)))
		if c.name == "Switch#1 (+default route)" {
			opts = append(opts, switchsim.WithDefaultRoute())
		}
		sw := switchsim.New(c.prof, opts...)
		e := probe.NewEngine(probe.SimDevice{S: sw})
		res, err := infer.ProbeSizes(e, infer.SizeOptions{Seed: int64(i)})
		if err != nil {
			rows[i] = []string{c.name, "-", "-", "error: " + err.Error(), "-", "-", "-"}
			return
		}
		est, census := res.Levels[0].Size, res.Levels[0].Census
		policy := c.prof.CachePolicy.String()
		if c.prof.Kind == switchsim.ManageTCAMOnly {
			policy = "(tcam only)"
		}
		rows[i] = []string{
			c.name, policy,
			fmt.Sprintf("%d", c.actual),
			fmt.Sprintf("%d", est), fmtPct(relError(est, c.actual)),
			fmt.Sprintf("%d", census), fmtPct(relError(census, c.actual)),
		}
	})
	t.Rows = append(t.Rows, rows...)
	return t
}

func relError(est, actual int) float64 {
	if actual == 0 {
		return 0
	}
	d := est - actual
	if d < 0 {
		d = -d
	}
	return float64(d) / float64(actual)
}

// PolicyAccuracy runs Algorithm 2 across the caching-algorithm matrix and
// reports the inferred policy against ground truth.
func PolicyAccuracy(o Options) *Table {
	t := &Table{
		Title:  "Cache-policy inference (Algorithm 2)",
		Header: []string{"true policy", "inferred", "correct", "rounds"},
	}
	const cache = 100
	matrix := policyMatrixExtended()
	rows := make([][]string, len(matrix))
	parallel.ForEach(len(matrix), o.Workers, func(i int) {
		pm := matrix[i]
		sw := switchsim.New(switchsim.TestSwitch(cache, pm.policy), switchsim.WithSeed(int64(i)))
		e := probe.NewEngine(probe.SimDevice{S: sw})
		res, err := infer.ProbePolicy(e, infer.PolicyOptions{CacheSize: cache, Seed: int64(i + 1)})
		if err != nil {
			rows[i] = []string{pm.policy.String(), "error: " + err.Error(), "no", "-"}
			return
		}
		correct := "no"
		if res.Policy.Equal(pm.policy) {
			correct = "yes"
		}
		rows[i] = []string{
			pm.policy.String(), res.Policy.String(), correct,
			fmt.Sprintf("%d", len(res.Rounds)),
		}
	})
	t.Rows = append(t.Rows, rows...)
	// OVS: correctly reported as traffic-driven/inconclusive.
	sw := switchsim.New(switchsim.OVS())
	e := probe.NewEngine(probe.SimDevice{S: sw})
	res, err := infer.ProbePolicy(e, infer.PolicyOptions{CacheSize: 64, Seed: 99})
	status := "error"
	if err == nil {
		status = "policy: " + res.Policy.String()
		if res.Inconclusive {
			status = "inconclusive (microflow)"
		}
	}
	micro := "no"
	if ok, _, err := infer.DetectMicroflowCaching(e, 1<<24, 9000); err == nil && ok {
		micro = "yes"
	}
	t.Rows = append(t.Rows, []string{"OVS (traffic-driven)", status, "microflow detected: " + micro, "-"})
	return t
}

// Figure6 reproduces Figure 6: the attribute-initialization pattern of the
// policy probe for cache size 100 — 200 flows whose insertion order, use
// order, priority, and traffic count are pairwise-decorrelated.
func Figure6() *Figure {
	init := infer.InitializationPattern(100, 0)
	fig := &Figure{Title: "Figure 6: cache-algorithm pattern initialization (cache size 100)"}
	mk := func(name string, vals []int) Series {
		s := Series{Name: name}
		for i, v := range vals {
			s.X = append(s.X, float64(i))
			s.Y = append(s.Y, float64(v))
		}
		return s
	}
	fig.Series = []Series{
		mk("insertion time", init.Insertion),
		mk("use time", init.Use),
		mk("priority", init.Priority),
		mk("traffic count", init.Traffic),
	}
	return fig
}

package classbench

import (
	"testing"
	"testing/quick"
)

func TestGenerateCounts(t *testing.T) {
	rs := Generate(Options{NumRules: 500, Families: 6, MaxDepth: 20, Seed: 1})
	if len(rs.Rules) != 500 {
		t.Fatalf("rules = %d, want 500", len(rs.Rules))
	}
	if got := rs.NumTopoPriorities(); got != 20 {
		t.Fatalf("topo priorities = %d, want 20 (max chain depth)", got)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Options{NumRules: 100, Families: 3, MaxDepth: 10, Seed: 7})
	b := Generate(Options{NumRules: 100, Families: 3, MaxDepth: 10, Seed: 7})
	for i := range a.Rules {
		if !a.Rules[i].Same(&b.Rules[i]) {
			t.Fatalf("rule %d differs across identical seeds", i)
		}
	}
}

func TestTopologicalPrioritiesValid(t *testing.T) {
	rs := Generate(Options{NumRules: 400, Families: 5, MaxDepth: 25, Seed: 2})
	prios := rs.TopologicalPriorities(100)
	if i, j := rs.validatePriorities(prios); i >= 0 {
		t.Fatalf("topological priorities violate constraint %d > %d", i, j)
	}
	// Minimality: distinct priority count equals level count.
	distinct := map[uint16]bool{}
	for _, p := range prios {
		distinct[p] = true
	}
	if len(distinct) != rs.NumTopoPriorities() {
		t.Fatalf("distinct = %d, levels = %d", len(distinct), rs.NumTopoPriorities())
	}
}

func TestRPrioritiesValidAndUnique(t *testing.T) {
	rs := Generate(Options{NumRules: 400, Families: 5, MaxDepth: 25, Seed: 3})
	prios := rs.RPriorities(100)
	if i, j := rs.validatePriorities(prios); i >= 0 {
		t.Fatalf("R priorities violate constraint %d > %d", i, j)
	}
	seen := map[uint16]bool{}
	for _, p := range prios {
		if seen[p] {
			t.Fatal("R priorities not unique")
		}
		seen[p] = true
	}
}

func TestDependenciesAreForward(t *testing.T) {
	rs := Generate(Options{NumRules: 200, Families: 4, MaxDepth: 15, Seed: 4})
	for i, js := range rs.deps {
		for _, j := range js {
			if j <= i {
				t.Fatalf("dependency %d -> %d not forward", i, j)
			}
			if !rs.Rules[i].Overlaps(&rs.Rules[j]) {
				t.Fatalf("dependency %d -> %d without overlap", i, j)
			}
		}
	}
}

func TestLevelsConsistent(t *testing.T) {
	rs := Generate(Options{NumRules: 300, Families: 5, MaxDepth: 18, Seed: 5})
	levels := rs.levels
	for i, js := range rs.deps {
		for _, j := range js {
			if levels[i] <= levels[j] {
				t.Fatalf("level[%d]=%d not above level[%d]=%d", i, levels[i], j, levels[j])
			}
		}
	}
}

func TestTable2Configs(t *testing.T) {
	wantFlows := []int{829, 989, 972}
	wantTopo := []int{52, 38, 33} // file 1 saturates at the prefix-nesting cap
	for i, cfg := range Table2Configs {
		rs := Generate(cfg)
		if len(rs.Rules) != wantFlows[i] {
			t.Errorf("file %d: flows = %d, want %d", i+1, len(rs.Rules), wantFlows[i])
		}
		if got := rs.NumTopoPriorities(); got != wantTopo[i] {
			t.Errorf("file %d: topo priorities = %d, want %d", i+1, got, wantTopo[i])
		}
		// R priorities are 1-1 with flows.
		prios := rs.RPriorities(100)
		seen := map[uint16]bool{}
		for _, p := range prios {
			seen[p] = true
		}
		if len(seen) != len(rs.Rules) {
			t.Errorf("file %d: R priorities %d not 1-1 with %d flows", i+1, len(seen), len(rs.Rules))
		}
	}
}

// Property: both priority assignments always satisfy every dependency for
// arbitrary generator parameters.
func TestPriorityAssignmentsAlwaysValid(t *testing.T) {
	f := func(seed int64, nRaw, famRaw, depthRaw uint8) bool {
		opts := Options{
			NumRules: int(nRaw%150) + 20,
			Families: int(famRaw%5) + 1,
			MaxDepth: int(depthRaw%30) + 2,
			Seed:     seed,
		}
		rs := Generate(opts)
		if i, _ := rs.validatePriorities(rs.TopologicalPriorities(10)); i >= 0 {
			return false
		}
		if i, _ := rs.validatePriorities(rs.RPriorities(10)); i >= 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// validatePriorities verifies that prios satisfies every dependency
// constraint (earlier overlapping rule strictly higher priority). It
// returns the first violated pair, or (-1, -1).
func (rs *RuleSet) validatePriorities(prios []uint16) (int, int) {
	for i, js := range rs.deps {
		for _, j := range js {
			if prios[i] <= prios[j] {
				return i, j
			}
		}
	}
	return -1, -1
}

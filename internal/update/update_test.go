package update

import (
	"testing"

	"tango/internal/core/pattern"
	"tango/internal/topo"
)

func TestPlanRerouteDependencies(t *testing.T) {
	oldA := topo.Allocation{1: {"a", "x", "b"}, 2: {"a", "b"}}
	newA := topo.Allocation{1: {"a", "y", "b"}, 2: {"a", "b"}}
	changes := topo.DiffAssignments(oldA, newA)
	if len(changes) != 3 { // add y, mod a, del x (flow 2 unchanged)
		t.Fatalf("changes = %d, want 3", len(changes))
	}
	g, err := Plan(changes, PlanOptions{AssignPriorities: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 3 {
		t.Fatalf("nodes = %d", g.Len())
	}
	// The independent set must contain only the destination-side add.
	indep := g.Frontier()
	if len(indep) != 1 || g.Payload(indep[0]).Switch != "y" || g.Payload(indep[0]).Op != pattern.OpAdd {
		t.Fatalf("independent set = %+v", indep)
	}
	// Draining the graph respects add → mod → del order.
	var order []pattern.OpKind
	for g.Len() > 0 {
		frontier := g.Frontier()
		for _, id := range frontier {
			order = append(order, g.Payload(id).Op)
		}
		if _, err := g.RemoveBatch(frontier); err != nil {
			t.Fatal(err)
		}
	}
	want := []pattern.OpKind{pattern.OpAdd, pattern.OpMod, pattern.OpDel}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("drain order = %v, want %v", order, want)
		}
	}
}

func TestPlanPriorityAssignmentModes(t *testing.T) {
	changes := []topo.RuleChange{
		{Switch: "s", Kind: topo.ChangeAdd, DependsOn: -1},
		{Switch: "t", Kind: topo.ChangeAdd, DependsOn: 0},
	}
	g, err := Plan(changes, PlanOptions{AssignPriorities: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint16]bool{}
	for _, id := range g.Nodes() {
		r := g.Payload(id)
		if !r.HasPriority {
			t.Fatal("priority not assigned")
		}
		if seen[r.Priority] {
			t.Fatal("duplicate priority")
		}
		seen[r.Priority] = true
	}
	g2, err := Plan(changes, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range g2.Nodes() {
		if g2.Payload(id).HasPriority {
			t.Fatal("priority assigned in enforcement mode")
		}
	}
}

func TestPlanRejectsForwardDependency(t *testing.T) {
	changes := []topo.RuleChange{
		{Switch: "s", Kind: topo.ChangeAdd, DependsOn: 1},
		{Switch: "t", Kind: topo.ChangeAdd, DependsOn: -1},
	}
	if _, err := Plan(changes, PlanOptions{}); err == nil {
		t.Fatal("forward dependency accepted")
	}
}

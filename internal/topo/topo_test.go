package topo

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestTriangle(t *testing.T) {
	g := Triangle()
	if len(g.Nodes()) != 3 {
		t.Fatalf("nodes = %v", g.Nodes())
	}
	p := g.ShortestPath("s1", "s2")
	if len(p) != 2 {
		t.Fatalf("direct path = %v", p)
	}
	g.RemoveLink("s1", "s2")
	p = g.ShortestPath("s1", "s2")
	if len(p) != 3 || p[1] != "s3" {
		t.Fatalf("reroute path = %v, want via s3", p)
	}
}

func TestNodesCacheInvalidation(t *testing.T) {
	g := NewGraph()
	g.AddLink("b", "a", 1)
	first := g.Nodes()
	if len(first) != 2 || first[0] != "a" || first[1] != "b" {
		t.Fatalf("Nodes = %v, want [a b]", first)
	}
	// Repeated calls without mutation return the cached slice.
	second := g.Nodes()
	if &first[0] != &second[0] {
		t.Fatal("Nodes rebuilt the slice without a mutation")
	}
	// AddNode of a brand-new name invalidates.
	g.AddNode("c")
	if got := g.Nodes(); len(got) != 3 || got[2] != "c" {
		t.Fatalf("Nodes after AddNode = %v", got)
	}
	// AddLink and RemoveLink invalidate too (conservatively: RemoveLink
	// never changes the node set, AddLink only via AddNode).
	g.AddLink("c", "d", 1)
	if got := g.Nodes(); len(got) != 4 || got[3] != "d" {
		t.Fatalf("Nodes after AddLink = %v", got)
	}
	g.RemoveLink("c", "d")
	if got := g.Nodes(); len(got) != 4 {
		t.Fatalf("Nodes after RemoveLink = %v", got)
	}
	// Re-adding an existing node must not disturb the cache's correctness.
	g.AddNode("a")
	if got := g.Nodes(); len(got) != 4 || got[0] != "a" {
		t.Fatalf("Nodes after duplicate AddNode = %v", got)
	}
}

func TestB4Connectivity(t *testing.T) {
	g := B4()
	nodes := g.Nodes()
	if len(nodes) != 12 {
		t.Fatalf("B4 nodes = %d, want 12", len(nodes))
	}
	edges := 0
	for _, a := range nodes {
		edges += len(g.Neighbors(a))
	}
	if edges/2 != 19 {
		t.Fatalf("B4 links = %d, want 19", edges/2)
	}
	for _, a := range nodes {
		for _, b := range nodes {
			if a == b {
				continue
			}
			p := g.ShortestPath(a, b)
			if p == nil {
				t.Fatalf("no path %s -> %s", a, b)
			}
			if err := g.validate(p); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestShortestPathUnreachableAndSelf(t *testing.T) {
	g := NewGraph()
	g.AddNode("a")
	g.AddNode("b")
	if p := g.ShortestPath("a", "b"); p != nil {
		t.Fatalf("path across partition: %v", p)
	}
	if p := g.ShortestPath("a", "a"); len(p) != 1 {
		t.Fatalf("self path = %v", p)
	}
}

func TestKShortestPaths(t *testing.T) {
	g := Triangle()
	paths := g.KShortestPaths("s1", "s2", 3)
	if len(paths) != 2 {
		t.Fatalf("paths = %v, want 2", paths)
	}
	if len(paths[0]) != 2 || len(paths[1]) != 3 {
		t.Fatalf("path lengths: %v", paths)
	}
}

func TestMaxMinFairEqualShare(t *testing.T) {
	// Two flows across one 10-unit link: 5 each.
	g := NewGraph()
	g.AddLink("a", "b", 10)
	paths := Allocation{1: {"a", "b"}, 2: {"a", "b"}}
	demands := []Demand{
		{FlowID: 1, Src: "a", Dst: "b", Rate: 100},
		{FlowID: 2, Src: "a", Dst: "b", Rate: 100},
	}
	rates := MaxMinFair(g, paths, demands)
	if math.Abs(rates[1]-5) > 1e-9 || math.Abs(rates[2]-5) > 1e-9 {
		t.Fatalf("rates = %v", rates)
	}
}

func TestMaxMinFairSmallDemandFreesCapacity(t *testing.T) {
	// Flow 1 wants only 2; flow 2 should get the remaining 8.
	g := NewGraph()
	g.AddLink("a", "b", 10)
	paths := Allocation{1: {"a", "b"}, 2: {"a", "b"}}
	demands := []Demand{
		{FlowID: 1, Src: "a", Dst: "b", Rate: 2},
		{FlowID: 2, Src: "a", Dst: "b", Rate: 100},
	}
	rates := MaxMinFair(g, paths, demands)
	if math.Abs(rates[1]-2) > 1e-9 || math.Abs(rates[2]-8) > 1e-9 {
		t.Fatalf("rates = %v", rates)
	}
}

func TestMaxMinFairMultiLink(t *testing.T) {
	// Flow 1 uses a-b (cap 10) and b-c (cap 4): bottlenecked at b-c shared
	// with flow 2.
	g := NewGraph()
	g.AddLink("a", "b", 10)
	g.AddLink("b", "c", 4)
	paths := Allocation{1: {"a", "b", "c"}, 2: {"b", "c"}}
	demands := []Demand{
		{FlowID: 1, Src: "a", Dst: "c", Rate: 100},
		{FlowID: 2, Src: "b", Dst: "c", Rate: 100},
	}
	rates := MaxMinFair(g, paths, demands)
	if math.Abs(rates[1]-2) > 1e-9 || math.Abs(rates[2]-2) > 1e-9 {
		t.Fatalf("rates = %v", rates)
	}
}

func TestDiffAssignmentsReroute(t *testing.T) {
	oldA := Allocation{7: {"s1", "s2"}}
	newA := Allocation{7: {"s1", "s3", "s2"}}
	changes := DiffAssignments(oldA, newA)
	// New path switches needing rules: s3 (add), s1 (mod). Reverse path:
	// s3 first, then s1 depending on it. No old-only switches.
	if len(changes) != 2 {
		t.Fatalf("changes = %+v", changes)
	}
	if changes[0].Switch != "s3" || changes[0].Kind != ChangeAdd || changes[0].DependsOn != -1 {
		t.Fatalf("first change = %+v", changes[0])
	}
	if changes[1].Switch != "s1" || changes[1].Kind != ChangeMod || changes[1].DependsOn != 0 {
		t.Fatalf("second change = %+v", changes[1])
	}
}

func TestDiffAssignmentsWithCleanup(t *testing.T) {
	oldA := Allocation{1: {"a", "x", "b"}}
	newA := Allocation{1: {"a", "y", "b"}}
	changes := DiffAssignments(oldA, newA)
	// y add (dep -1), a mod (dep add), x del (dep a's mod).
	if len(changes) != 3 {
		t.Fatalf("changes = %+v", changes)
	}
	var del *RuleChange
	for i := range changes {
		if changes[i].Kind == ChangeDel {
			del = &changes[i]
		}
	}
	if del == nil || del.Switch != "x" {
		t.Fatalf("missing del on x: %+v", changes)
	}
	if changes[del.DependsOn].Switch != "a" {
		t.Fatalf("del depends on %+v, want the source flip", changes[del.DependsOn])
	}
}

func TestDiffAssignmentsNoChange(t *testing.T) {
	a := Allocation{1: {"a", "b"}}
	if changes := DiffAssignments(a, Allocation{1: {"a", "b"}}); len(changes) != 0 {
		t.Fatalf("changes on identical allocation: %+v", changes)
	}
}

// Property: max-min rates never exceed demand, never go negative, and no
// link is oversubscribed.
func TestMaxMinFairInvariants(t *testing.T) {
	g := B4()
	nodes := g.Nodes()
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%20) + 2
		demands := make([]Demand, n)
		paths := Allocation{}
		rng := newRng(seed)
		for i := 0; i < n; i++ {
			src := nodes[rng.Intn(len(nodes))]
			dst := nodes[rng.Intn(len(nodes))]
			if src == dst {
				dst = nodes[(rng.Intn(len(nodes)-1)+1+indexOf(nodes, src))%len(nodes)]
			}
			demands[i] = Demand{FlowID: uint32(i), Src: src, Dst: dst, Rate: float64(rng.Intn(50) + 1)}
			paths[uint32(i)] = g.ShortestPath(src, dst)
		}
		rates := MaxMinFair(g, paths, demands)
		load := map[[2]string]float64{}
		for _, d := range demands {
			r := rates[d.FlowID]
			if r < -1e-9 || r > d.Rate+1e-9 {
				return false
			}
			p := paths[d.FlowID]
			for i := 0; i+1 < len(p); i++ {
				a, b := p[i], p[i+1]
				if a > b {
					a, b = b, a
				}
				load[[2]string{a, b}] += r
			}
		}
		for l, v := range load {
			if v > g.Capacity(l[0], l[1])+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func indexOf(ss []string, s string) int {
	for i, v := range ss {
		if v == s {
			return i
		}
	}
	return -1
}

// newRng is a tiny helper keeping the property test self-contained.
func newRng(seed int64) *prng { return &prng{state: uint64(seed)*2654435761 + 1} }

// prng is a minimal xorshift generator (math/rand would be fine too; this
// keeps the quick.Check closure allocation-free).
type prng struct{ state uint64 }

func (p *prng) Intn(n int) int {
	p.state ^= p.state << 13
	p.state ^= p.state >> 7
	p.state ^= p.state << 17
	return int(p.state % uint64(n))
}

// validate sanity-checks a path against the graph.
func (g *Graph) validate(path []string) error {
	for i := 0; i+1 < len(path); i++ {
		if _, ok := g.adj[path[i]][path[i+1]]; !ok {
			return fmt.Errorf("topo: no link %s-%s", path[i], path[i+1])
		}
	}
	return nil
}

package dag

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// paperExample builds the DAG of Figure 7: nine requests A–J (no D) where
// C→B→A, F→E, G→F(?) ... The figure's exact edge set is: B→A? The paper says
// requests A, E, H, I are independent with equal longest-path length. We
// reproduce that structure: chains A←B←C, E←F←G, H←? with extra nodes so the
// independent set is {A, E, H, I}.
func paperExample(t *testing.T) (*Graph[string], map[string]NodeID) {
	t.Helper()
	g := New[string]()
	ids := map[string]NodeID{}
	for _, name := range []string{"A", "B", "C", "E", "F", "G", "H", "I", "J"} {
		ids[name] = g.AddNode(name)
	}
	edges := [][2]string{
		{"A", "B"}, {"B", "C"}, // A before B before C
		{"E", "F"}, {"F", "G"},
		{"H", "J"}, {"I", "J"},
	}
	for _, e := range edges {
		if err := g.AddEdge(ids[e[0]], ids[e[1]]); err != nil {
			t.Fatalf("AddEdge(%s→%s): %v", e[0], e[1], err)
		}
	}
	return g, ids
}

func names(g *Graph[string], ns []NodeID) []string {
	out := make([]string, len(ns))
	for i, n := range ns {
		out[i] = g.Payload(n)
	}
	return out
}

func TestIndependentSet(t *testing.T) {
	g, ids := paperExample(t)
	got := names(g, g.IndependentSet())
	want := []string{"A", "E", "H", "I"}
	if len(got) != len(want) {
		t.Fatalf("independent set = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("independent set = %v, want %v", got, want)
		}
	}
	// Completing A promotes B.
	if _, err := g.RemoveBatch([]NodeID{ids["A"]}); err != nil {
		t.Fatal(err)
	}
	got = names(g, g.IndependentSet())
	want = []string{"B", "E", "H", "I"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("after removing A: %v, want %v", got, want)
		}
	}
}

func TestCycleRejection(t *testing.T) {
	g := New[int]()
	a := g.AddNode(1)
	b := g.AddNode(2)
	c := g.AddNode(3)
	if err := g.AddEdge(a, b); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(b, c); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(c, a); !errors.Is(err, ErrWouldCycle) {
		t.Fatalf("err = %v, want ErrWouldCycle", err)
	}
	if err := g.AddEdge(a, a); !errors.Is(err, ErrWouldCycle) {
		t.Fatalf("self loop err = %v, want ErrWouldCycle", err)
	}
}

func TestBadNode(t *testing.T) {
	g := New[int]()
	a := g.AddNode(1)
	if err := g.AddEdge(a, NodeID(99)); !errors.Is(err, ErrBadNode) {
		t.Fatalf("err = %v, want ErrBadNode", err)
	}
	if _, err := g.RemoveBatch([]NodeID{-1}); !errors.Is(err, ErrBadNode) {
		t.Fatalf("err = %v, want ErrBadNode", err)
	}
	if _, err := g.RemoveBatch([]NodeID{a}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.RemoveBatch([]NodeID{a}); !errors.Is(err, ErrBadNode) {
		t.Fatalf("double remove err = %v, want ErrBadNode", err)
	}
}

func TestLevels(t *testing.T) {
	g, _ := paperExample(t)
	levels := g.Levels()
	if len(levels) != 3 {
		t.Fatalf("got %d levels, want 3", len(levels))
	}
	if got := names(g, levels[0]); len(got) != 4 {
		t.Fatalf("level 0 = %v, want 4 nodes", got)
	}
	if got := names(g, levels[2]); len(got) != 2 { // C and G
		t.Fatalf("level 2 = %v, want 2 nodes", got)
	}
}

func TestLongestPathLengths(t *testing.T) {
	g, ids := paperExample(t)
	lp := g.LongestPathLengths()
	if lp[ids["A"]] != 3 {
		t.Fatalf("A chain length = %d, want 3", lp[ids["A"]])
	}
	if lp[ids["H"]] != 2 || lp[ids["I"]] != 2 {
		t.Fatalf("H, I chain lengths = %d, %d, want 2, 2", lp[ids["H"]], lp[ids["I"]])
	}
	if lp[ids["C"]] != 1 {
		t.Fatalf("C chain length = %d, want 1", lp[ids["C"]])
	}
}

func TestDrainViaIndependentSets(t *testing.T) {
	// Simulates the scheduler loop: repeatedly issue the whole independent
	// set; the graph must drain in exactly (max level + 1) rounds with no
	// node issued before its dependencies.
	g, _ := paperExample(t)
	issued := map[NodeID]bool{}
	rounds := 0
	for g.Len() > 0 {
		rounds++
		if rounds > 100 {
			t.Fatal("graph failed to drain")
		}
		batch := g.IndependentSet()
		if len(batch) == 0 {
			t.Fatal("no progress possible on non-empty DAG")
		}
		for _, n := range batch {
			for _, p := range g.pred[n] {
				if !issued[p] {
					t.Fatalf("node %v issued before predecessor %v", g.Payload(n), g.Payload(p))
				}
			}
		}
		for _, n := range batch {
			issued[n] = true
		}
		if _, err := g.RemoveBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if rounds != 3 {
		t.Fatalf("drained in %d rounds, want 3", rounds)
	}
}

// Property: for random DAGs (edges only from lower to higher IDs, so acyclic
// by construction), Levels partitions the live nodes and puts every edge's
// source on a lower level than its target.
func TestRandomDAGInvariants(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%40) + 1
		rng := rand.New(rand.NewSource(seed))
		g := New[int]()
		for i := 0; i < n; i++ {
			g.AddNode(i)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.15 {
					if err := g.AddEdge(NodeID(i), NodeID(j)); err != nil {
						return false
					}
				}
			}
		}
		level := map[NodeID]int{}
		for l, ids := range g.Levels() {
			for _, id := range ids {
				if _, dup := level[id]; dup {
					return false
				}
				level[id] = l
			}
		}
		if len(level) != n {
			return false
		}
		for _, id := range g.Nodes() {
			for _, s := range g.Successors(id) {
				if level[id] >= level[s] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: random edge insertions never produce a graph in which a cycle is
// observable: AddEdge(u,v) succeeding implies v cannot reach u.
func TestNoCycleProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := New[int]()
		const n = 12
		for i := 0; i < n; i++ {
			g.AddNode(i)
		}
		for k := 0; k < 60; k++ {
			u := NodeID(rng.Intn(n))
			v := NodeID(rng.Intn(n))
			err := g.AddEdge(u, v)
			if err == nil && g.reachable(v, u) {
				return false
			}
		}
		// A DAG must always have a non-empty independent set.
		return len(g.IndependentSet()) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

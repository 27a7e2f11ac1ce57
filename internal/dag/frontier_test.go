package dag

import (
	"errors"
	"math/rand"
	"testing"
)

// IndependentSet recomputes the frontier from scratch: all live nodes with
// no live predecessors, in ascending ID order. It is the reference the
// incremental Frontier is checked against.
func (g *Graph[T]) IndependentSet() []NodeID {
	var out []NodeID
	for i := range g.payload {
		if g.removed[i] {
			continue
		}
		if len(g.Predecessors(NodeID(i))) == 0 {
			out = append(out, NodeID(i))
		}
	}
	return out
}

// sameIDs reports whether a and b are identical sequences.
func sameIDs(a, b []NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFrontierMatchesIndependentSet cross-checks the incremental frontier
// against the reference scan on the paper's Figure 7 example through a full
// drain via single Removes.
func TestFrontierMatchesIndependentSet(t *testing.T) {
	g, _ := paperExample(t)
	for g.Len() > 0 {
		want := g.IndependentSet()
		got := g.Frontier()
		if !sameIDs(got, want) {
			t.Fatalf("Frontier() = %v, IndependentSet() = %v", got, want)
		}
		if err := g.Remove(want[0]); err != nil {
			t.Fatal(err)
		}
	}
	if got := g.Frontier(); len(got) != 0 {
		t.Fatalf("drained graph frontier = %v", got)
	}
}

// TestRemoveBatchUnblocks pins the O(out-degree) emission contract: only
// nodes whose last live predecessor left with the batch are reported, in
// ascending ID order, and batch members are never reported.
func TestRemoveBatchUnblocks(t *testing.T) {
	g := New[string]()
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	d := g.AddNode("d")
	e := g.AddNode("e")
	for _, edge := range [][2]NodeID{{a, c}, {b, c}, {a, d}, {c, e}} {
		if err := g.AddEdge(edge[0], edge[1]); err != nil {
			t.Fatal(err)
		}
	}
	// Removing {a} unblocks d but not c (b still live).
	got, err := g.RemoveBatch([]NodeID{a})
	if err != nil {
		t.Fatal(err)
	}
	if !sameIDs(got, []NodeID{d}) {
		t.Fatalf("unblocked = %v, want [d=%d]", got, d)
	}
	// Removing {b, c} unblocks e; c is unblocked by b's removal mid-batch
	// but, being a batch member, must not be reported.
	got, err = g.RemoveBatch([]NodeID{b, c})
	if err != nil {
		t.Fatal(err)
	}
	if !sameIDs(got, []NodeID{e}) {
		t.Fatalf("unblocked = %v, want [e=%d]", got, e)
	}
	if want := g.IndependentSet(); !sameIDs(g.Frontier(), want) {
		t.Fatalf("frontier %v != reference %v", g.Frontier(), want)
	}
}

func TestRemoveBatchRejectsBadAndDuplicateNodes(t *testing.T) {
	g := New[int]()
	a := g.AddNode(1)
	b := g.AddNode(2)
	if _, err := g.RemoveBatch([]NodeID{a, NodeID(99)}); !errors.Is(err, ErrBadNode) {
		t.Fatalf("bad node err = %v", err)
	}
	if _, err := g.RemoveBatch([]NodeID{a, a}); !errors.Is(err, ErrBadNode) {
		t.Fatalf("duplicate err = %v", err)
	}
	// Failed batches must leave the graph untouched.
	if g.Len() != 2 || g.Removed(a) || g.Removed(b) {
		t.Fatalf("failed batch mutated graph: len=%d", g.Len())
	}
	if want := g.IndependentSet(); !sameIDs(g.Frontier(), want) {
		t.Fatalf("frontier %v != reference %v", g.Frontier(), want)
	}
}

// TestFrontierDifferential drains randomized DAGs with a mix of RemoveBatch
// (random frontier subsets plus same-batch dependent followers) and single
// Removes, comparing Frontier() against the IndependentSet() reference scan
// after every mutation. This is the randomized gate for the incremental
// Kahn machinery; the CI race job runs it under -race.
func TestFrontierDifferential(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := New[int]()
		n := 20 + rng.Intn(60)
		for i := 0; i < n; i++ {
			g.AddNode(i)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.1 {
					if err := g.AddEdge(NodeID(i), NodeID(j)); err != nil {
						t.Fatalf("seed %d: AddEdge: %v", seed, err)
					}
				}
			}
		}
		for g.Len() > 0 {
			want := g.IndependentSet()
			got := g.Frontier()
			if !sameIDs(got, want) {
				t.Fatalf("seed %d: frontier %v != reference %v", seed, got, want)
			}
			if rng.Intn(4) == 0 {
				// Single reference-path removal.
				if err := g.Remove(want[rng.Intn(len(want))]); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				continue
			}
			// Random non-empty frontier subset...
			batch := make([]NodeID, 0, len(want))
			for _, id := range want {
				if rng.Float64() < 0.6 {
					batch = append(batch, id)
				}
			}
			if len(batch) == 0 {
				batch = append(batch, want[0])
			}
			// ...plus followers whose live predecessors all sit in the batch
			// (the concurrent extension's co-issue shape).
			inBatch := map[NodeID]bool{}
			for _, id := range batch {
				inBatch[id] = true
			}
			for _, id := range batch {
				for _, s := range g.Successors(id) {
					if inBatch[s] {
						continue
					}
					ok := true
					for _, p := range g.Predecessors(s) {
						if !inBatch[p] {
							ok = false
							break
						}
					}
					if ok && rng.Intn(2) == 0 {
						inBatch[s] = true
						batch = append(batch, s)
					}
				}
			}
			unblocked, err := g.RemoveBatch(batch)
			if err != nil {
				t.Fatalf("seed %d: RemoveBatch: %v", seed, err)
			}
			// Every reported node must now be in the reference independent
			// set, and must not have been there before... the cheap check:
			// all unblocked nodes are live with zero live predecessors.
			for _, id := range unblocked {
				if g.Removed(id) || len(g.Predecessors(id)) != 0 {
					t.Fatalf("seed %d: unblocked node %d not independent", seed, id)
				}
			}
		}
		if got := g.Frontier(); len(got) != 0 {
			t.Fatalf("seed %d: drained frontier = %v", seed, got)
		}
	}
}

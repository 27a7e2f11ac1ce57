package dag

import (
	"errors"
	"math/rand"
	"slices"
	"sync"
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

// sameSet reports whether a and b hold the same IDs, each once, in any order.
func sameSet(a, b []NodeID) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return len(slices.Compact(a)) == len(a) && slices.Equal(a, b)
}

// readyMismatch returns a node whose ready bit disagrees with the reference
// (set exactly for live nodes with no live predecessors), or -1. Bits past
// the last node must be clear.
func (g *Graph[T]) readyMismatch() NodeID {
	for w, word := range g.ready {
		for b := 0; b < 64; b++ {
			id := NodeID(w*64 + b)
			want := int(id) < len(g.payload) && !g.removed[id] && len(g.Predecessors(id)) == 0
			if (word>>b&1 == 1) != want {
				return id
			}
		}
	}
	return -1
}

// TestFrontierMatchesIndependentSet cross-checks the incremental frontier
// against the reference scan on the paper's Figure 7 example through a full
// drain via one-element batches.
func TestFrontierMatchesIndependentSet(t *testing.T) {
	g, _ := paperExample(t)
	for g.Len() > 0 {
		want := g.IndependentSet()
		got := g.Frontier()
		if !slices.Equal(got, want) {
			t.Fatalf("Frontier() = %v, IndependentSet() = %v", got, want)
		}
		if _, err := g.RemoveBatch(want[:1]); err != nil {
			t.Fatal(err)
		}
	}
	if got := g.Frontier(); len(got) != 0 {
		t.Fatalf("drained graph frontier = %v", got)
	}
}

// TestRemoveBatchUnblocks pins the O(out-degree) emission contract: only
// nodes whose last live predecessor left with the batch are reported, and
// batch members are never reported.
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
	if !sameSet(got, []NodeID{d}) {
		t.Fatalf("unblocked = %v, want [d=%d]", got, d)
	}
	// Removing {b, c} unblocks e; c is unblocked by b's removal mid-batch
	// but, being a batch member, must not be reported.
	got, err = g.RemoveBatch([]NodeID{b, c})
	if err != nil {
		t.Fatal(err)
	}
	if !sameSet(got, []NodeID{e}) {
		t.Fatalf("unblocked = %v, want [e=%d]", got, e)
	}
	if want := g.IndependentSet(); !slices.Equal(g.Frontier(), want) {
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
	if g.Len() != 2 || g.removed[a] || g.removed[b] {
		t.Fatalf("failed batch mutated graph: len=%d", g.Len())
	}
	if want := g.IndependentSet(); !slices.Equal(g.Frontier(), want) {
		t.Fatalf("frontier %v != reference %v", g.Frontier(), want)
	}
}

// referencePathLengths recomputes LongestPathLengths from scratch for the
// live nodes by memoised depth-first search over Successors().
func (g *Graph[T]) referencePathLengths() map[NodeID]int {
	length := map[NodeID]int{}
	var visit func(NodeID) int
	visit = func(n NodeID) int {
		if l, ok := length[n]; ok {
			return l
		}
		best := 0
		for _, s := range g.Successors(n) {
			best = max(best, visit(s))
		}
		length[n] = best + 1
		return best + 1
	}
	for _, n := range g.Nodes() {
		visit(n)
	}
	return length
}

// TestFrontierDifferential drains randomized DAGs with a mix of RemoveBatch
// (random frontier subsets plus same-batch dependent followers, passed as a
// copy, or a prefix of the very slice Frontier() returned, passed aliased),
// one-element batches of frontier and non-frontier nodes, and late AddNode /
// AddEdge calls. After every mutation the memoised LongestPathLengths must
// equal a from-scratch recomputation, the ready bits must be set for exactly
// the live nodes with no live predecessors, and Frontier() must equal the
// IndependentSet() reference scan. Every RemoveBatch must report, as a set,
// exactly the nodes it moved onto the frontier, and must leave an aliased
// batch unwritten. This is the randomized gate for the incremental Kahn
// machinery; the CI race job runs it under -race.
func TestFrontierDifferential(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
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
		check := func(after string) {
			t.Helper()
			got, want := g.LongestPathLengths(), g.referencePathLengths()
			for id, l := range want {
				if got[id] != l {
					t.Fatalf("seed %d after %s: path length of %d = %d, want %d", seed, after, id, got[id], l)
				}
			}
			if id := g.readyMismatch(); id >= 0 {
				t.Fatalf("seed %d after %s: ready bit of %d disagrees with the reference", seed, after, id)
			}
			if got, want := g.Frontier(), g.IndependentSet(); !slices.Equal(got, want) {
				t.Fatalf("seed %d after %s: frontier %v != reference %v", seed, after, got, want)
			}
		}
		// remove retires batch and checks what RemoveBatch reports against
		// the frontier's growth, and that it left the batch as it was.
		remove := func(batch []NodeID, after string) {
			t.Helper()
			before, given := g.IndependentSet(), slices.Clone(batch)
			unblocked, err := g.RemoveBatch(batch)
			if err != nil {
				t.Fatalf("seed %d: %s: %v", seed, after, err)
			}
			if !slices.Equal(batch, given) {
				t.Fatalf("seed %d: %s wrote its batch: %v, was %v", seed, after, batch, given)
			}
			var want []NodeID
			for _, id := range g.IndependentSet() {
				if !slices.Contains(before, id) {
					want = append(want, id)
				}
			}
			if !sameSet(unblocked, want) {
				t.Fatalf("seed %d: %s unblocked %v, want the set %v", seed, after, unblocked, want)
			}
			check(after)
		}
		growth := 15 // late AddNode / AddEdge calls left, so the drain ends
		for g.Len() > 0 {
			live := g.Nodes()
			switch action := rng.Intn(8); {
			case action == 0:
				// Any live node: off the frontier it takes chains with it.
				remove(live[rng.Intn(len(live)):][:1], "RemoveBatch of one")
			case action == 1 && growth > 0:
				growth--
				id := g.AddNode(-1)
				for k := rng.Intn(3); k > 0; k-- {
					if err := g.AddEdge(live[rng.Intn(len(live))], id); err != nil {
						t.Fatalf("seed %d: AddEdge: %v", seed, err)
					}
				}
				check("AddNode")
			case action == 2 && growth > 0 && len(live) > 1:
				growth--
				// Lower to higher ID keeps the graph acyclic by construction.
				i := rng.Intn(len(live) - 1)
				if err := g.AddEdge(live[i], live[i+1+rng.Intn(len(live)-i-1)]); err != nil {
					t.Fatalf("seed %d: AddEdge: %v", seed, err)
				}
				check("AddEdge")
			case rng.Intn(2) == 0:
				// Aliased: a prefix of the slice the graph itself holds.
				f := g.Frontier()
				remove(f[:1+rng.Intn(len(f))], "aliased RemoveBatch")
			default:
				remove(batchWithFollowers(g, rng), "RemoveBatch")
			}
		}
		if got := g.Frontier(); len(got) != 0 {
			t.Fatalf("seed %d: drained frontier = %v", seed, got)
		}
	}
}

// batchWithFollowers draws a random non-empty subset of the independent set
// plus followers whose live predecessors all sit in the batch (the
// concurrent extension's co-issue shape), as a slice of its own.
func batchWithFollowers(g *Graph[int], rng *rand.Rand) []NodeID {
	indep := g.IndependentSet()
	batch := make([]NodeID, 0, len(indep))
	for _, id := range indep {
		if rng.Float64() < 0.6 {
			batch = append(batch, id)
		}
	}
	if len(batch) == 0 {
		batch = append(batch, indep[0])
	}
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
	return batch
}

// layeredGraph builds the layer probe's shape: levels × width nodes, each
// below the first level with one or two parents in the level above.
func layeredGraph(levels, width int) *Graph[int] {
	rng := rand.New(rand.NewSource(1))
	g := New[int]()
	for i := 0; i < levels*width; i++ {
		g.AddNode(i)
	}
	for l := 1; l < levels; l++ {
		for i := 0; i < width; i++ {
			for k := 0; k < 1+rng.Intn(2); k++ {
				// A repeated parent is a duplicate edge, not a cycle.
				_ = g.AddEdge(NodeID((l-1)*width+rng.Intn(width)), NodeID(l*width+i))
			}
		}
	}
	return g
}

// BenchmarkFrontierDrain is the scheduler's round loop with nothing in it:
// read the frontier, retire it, 40 times over 6,400 nodes.
func BenchmarkFrontierDrain(b *testing.B) {
	const levels, width = 40, 160
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := layeredGraph(levels, width)
		b.StartTimer()
		for f := g.Frontier(); len(f) > 0; f = g.Frontier() {
			if _, err := g.RemoveBatch(f); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*levels*width), "ns/node")
}

// BenchmarkLongestPathLengths prices the critical-path table on the same
// graph: computed from scratch, and read back memoised (what Dionysus pays
// per switch per round after the first).
func BenchmarkLongestPathLengths(b *testing.B) {
	g := layeredGraph(40, 160)
	b.Run("compute", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.pathValid = false
			g.LongestPathLengths()
		}
	})
	b.Run("memoised", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.LongestPathLengths()
		}
	})
}

// TestLongestPathLengthsConcurrentFill is the race gate for the memo's lazy
// fill: the first readers of a fresh graph arrive together, as a round's
// per-switch Dionysus.Order calls do.
func TestLongestPathLengthsConcurrentFill(t *testing.T) {
	g := layeredGraph(10, 20)
	want := g.referencePathLengths()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := g.LongestPathLengths()
			for id, l := range want {
				if got[id] != l {
					t.Errorf("path length of %d = %d, want %d", id, got[id], l)
					return
				}
			}
		}()
	}
	wg.Wait()
}

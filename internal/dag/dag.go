// Package dag implements the directed-acyclic-graph machinery behind the
// Tango scheduler (§6 of the paper). Nodes are switch requests; an edge
// A → B means A must complete before B may be issued. The scheduler
// repeatedly extracts the current *independent set* — nodes with no
// unfinished predecessors — orders it with a Tango pattern, issues it, and
// removes the finished requests.
package dag

import (
	"errors"
	"fmt"
	"sort"
)

// NodeID identifies a node within one Graph. IDs are dense and assigned by
// AddNode in increasing order starting from zero.
type NodeID int

// Graph is a mutable DAG with arbitrary per-node payloads.
// The zero value is an empty graph ready for use.
//
// Alongside the adjacency lists the graph maintains an incremental Kahn
// frontier: a live-indegree counter per node and the set of live nodes whose
// counter is zero. Remove and RemoveBatch update both in O(out-degree), so
// the scheduler's round loop never rescans the whole graph. (The from-scratch
// scan lives in frontier_test.go as the differential test's reference.)
type Graph[T any] struct {
	payload []T
	succ    [][]NodeID
	pred    [][]NodeID
	removed []bool
	live    int

	// indeg[i] counts live predecessors of live node i (stale for removed
	// nodes). inFrontier marks nodes with indeg zero; frontier lists them,
	// possibly with stale or duplicate entries that Frontier() compacts
	// lazily (membership truth lives in inFrontier).
	indeg         []int
	inFrontier    []bool
	frontier      []NodeID
	frontierClean bool
}

// New returns an empty graph.
func New[T any]() *Graph[T] { return &Graph[T]{} }

// AddNode inserts a node carrying payload v and returns its ID.
func (g *Graph[T]) AddNode(v T) NodeID {
	id := NodeID(len(g.payload))
	g.payload = append(g.payload, v)
	g.succ = append(g.succ, nil)
	g.pred = append(g.pred, nil)
	g.removed = append(g.removed, false)
	g.live++
	g.indeg = append(g.indeg, 0)
	g.inFrontier = append(g.inFrontier, true)
	// Appending the new maximum ID preserves the compacted (sorted, no
	// stale entries) state, so frontierClean is left as-is.
	g.frontier = append(g.frontier, id)
	return id
}

// ErrWouldCycle is returned by AddEdge when the edge would create a cycle.
var ErrWouldCycle = errors.New("dag: edge would create a cycle")

// ErrBadNode is returned when a node ID is out of range or removed.
var ErrBadNode = errors.New("dag: unknown node")

func (g *Graph[T]) check(id NodeID) error {
	if id < 0 || int(id) >= len(g.payload) || g.removed[id] {
		return fmt.Errorf("%w: %d", ErrBadNode, id)
	}
	return nil
}

// AddEdge adds the dependency from → to ("from must finish before to").
// It rejects self-loops and edges that would create a cycle, keeping the
// graph a DAG by construction: the paper requires that "if the dependency
// forms a loop, the upper layer must break the loop".
func (g *Graph[T]) AddEdge(from, to NodeID) error {
	if err := g.check(from); err != nil {
		return err
	}
	if err := g.check(to); err != nil {
		return err
	}
	if from == to {
		return ErrWouldCycle
	}
	if g.reachable(to, from) {
		return ErrWouldCycle
	}
	g.succ[from] = append(g.succ[from], to)
	g.pred[to] = append(g.pred[to], from)
	g.indeg[to]++
	if g.inFrontier[to] {
		// Lazy eviction: the stale slice entry is filtered on the next
		// Frontier() compaction.
		g.inFrontier[to] = false
		g.frontierClean = false
	}
	return nil
}

// reachable reports whether dst is reachable from src over live nodes.
func (g *Graph[T]) reachable(src, dst NodeID) bool {
	if src == dst {
		return true
	}
	seen := make(map[NodeID]bool)
	stack := []NodeID{src}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range g.succ[n] {
			if g.removed[s] || seen[s] {
				continue
			}
			if s == dst {
				return true
			}
			seen[s] = true
			stack = append(stack, s)
		}
	}
	return false
}

// Len returns the number of live (not yet removed) nodes.
func (g *Graph[T]) Len() int { return g.live }

// Payload returns the payload attached to id.
func (g *Graph[T]) Payload(id NodeID) T { return g.payload[id] }

// SetPayload replaces the payload attached to id.
func (g *Graph[T]) SetPayload(id NodeID, v T) { g.payload[id] = v }

// Remove marks a node finished and detaches it from the graph, potentially
// promoting its successors into the independent set. The frontier is
// maintained incrementally in O(out-degree).
func (g *Graph[T]) Remove(id NodeID) error {
	if err := g.check(id); err != nil {
		return err
	}
	g.detach(id, nil)
	return nil
}

// detach removes a checked-live node, decrements its live successors'
// indegree counters, and promotes newly-unblocked successors into the
// frontier. When emit is non-nil, promoted nodes are appended to *emit.
func (g *Graph[T]) detach(id NodeID, emit *[]NodeID) {
	g.removed[id] = true
	g.live--
	if g.inFrontier[id] {
		g.inFrontier[id] = false
		g.frontierClean = false
	}
	for _, s := range g.succ[id] {
		if g.removed[s] {
			continue
		}
		g.indeg[s]--
		if g.indeg[s] == 0 {
			g.inFrontier[s] = true
			g.frontier = append(g.frontier, s)
			g.frontierClean = false
			if emit != nil {
				*emit = append(*emit, s)
			}
		}
	}
}

// RemoveBatch removes every node in ids (all must be live; duplicates are
// rejected as ErrBadNode on the second occurrence) and returns the nodes the
// batch newly unblocked — live nodes whose last live predecessor was in the
// batch — in ascending ID order. Nodes removed by the batch itself are never
// reported, so issuing a frontier slice plus co-issued followers works. Cost
// is O(Σ out-degree(ids) + k log k) for k unblocked nodes, independent of
// graph size.
func (g *Graph[T]) RemoveBatch(ids []NodeID) ([]NodeID, error) {
	for i, id := range ids {
		err := g.check(id)
		if err == nil {
			// Marking inside the validation loop doubles as duplicate
			// detection; the marks are cleared before detaching.
			g.removed[id] = true
			continue
		}
		for _, done := range ids[:i] {
			g.removed[done] = false
		}
		return nil, err
	}
	for _, id := range ids {
		g.removed[id] = false
	}
	var unblocked []NodeID
	for _, id := range ids {
		g.detach(id, &unblocked)
	}
	// A batch member can be "unblocked" by an earlier member before its own
	// detach; filter those and sort what remains.
	out := unblocked[:0]
	for _, id := range unblocked {
		if !g.removed[id] {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out, nil
}

// Frontier returns the live nodes with no live predecessors in ascending ID
// order: the requests the scheduler may issue now, maintained incrementally.
// The returned slice is owned by the graph and valid until the next
// mutation.
func (g *Graph[T]) Frontier() []NodeID {
	if !g.frontierClean {
		g.compactFrontier()
	}
	return g.frontier
}

// compactFrontier drops stale and duplicate entries and sorts. Amortised
// O(f log f) for f frontier entries: every entry was appended by exactly one
// promotion (or AddNode), and compaction consumes them.
func (g *Graph[T]) compactFrontier() {
	kept := g.frontier[:0]
	for _, id := range g.frontier {
		if g.inFrontier[id] && !g.removed[id] {
			kept = append(kept, id)
		}
	}
	sort.Slice(kept, func(a, b int) bool { return kept[a] < kept[b] })
	// Dedupe adjacent entries: a node that left and re-entered the frontier
	// between compactions appears twice.
	out := kept[:0]
	for i, id := range kept {
		if i > 0 && id == kept[i-1] {
			continue
		}
		out = append(out, id)
	}
	g.frontier = out
	g.frontierClean = true
}

// Removed reports whether id has been removed.
func (g *Graph[T]) Removed(id NodeID) bool {
	return id >= 0 && int(id) < len(g.removed) && g.removed[id]
}

// Nodes returns the IDs of all live nodes in ascending order.
func (g *Graph[T]) Nodes() []NodeID {
	out := make([]NodeID, 0, g.live)
	for i := range g.payload {
		if !g.removed[i] {
			out = append(out, NodeID(i))
		}
	}
	return out
}

// Successors returns the live successors of id.
func (g *Graph[T]) Successors(id NodeID) []NodeID {
	var out []NodeID
	for _, s := range g.succ[id] {
		if !g.removed[s] {
			out = append(out, s)
		}
	}
	return out
}

// InDegree returns the number of live predecessors of id without
// materializing them — the counter the incremental frontier maintains.
func (g *Graph[T]) InDegree(id NodeID) int { return g.indeg[id] }

// Predecessors returns the live predecessors of id.
func (g *Graph[T]) Predecessors(id NodeID) []NodeID {
	var out []NodeID
	for _, p := range g.pred[id] {
		if !g.removed[p] {
			out = append(out, p)
		}
	}
	return out
}

// TopoSort returns the live nodes in a topological order (dependencies
// first). Ties are broken by ascending node ID so the order is
// deterministic.
func (g *Graph[T]) TopoSort() []NodeID {
	indeg := make(map[NodeID]int, g.live)
	for _, n := range g.Nodes() {
		indeg[n] = len(g.Predecessors(n))
	}
	var ready []NodeID
	for n, d := range indeg {
		if d == 0 {
			ready = append(ready, n)
		}
	}
	sort.Slice(ready, func(a, b int) bool { return ready[a] < ready[b] })
	out := make([]NodeID, 0, g.live)
	for len(ready) > 0 {
		n := ready[0]
		ready = ready[1:]
		out = append(out, n)
		var promoted []NodeID
		for _, s := range g.Successors(n) {
			indeg[s]--
			if indeg[s] == 0 {
				promoted = append(promoted, s)
			}
		}
		sort.Slice(promoted, func(a, b int) bool { return promoted[a] < promoted[b] })
		// Merge while keeping determinism; simple append+sort is fine at the
		// scales the scheduler works with.
		ready = append(ready, promoted...)
		sort.Slice(ready, func(a, b int) bool { return ready[a] < ready[b] })
	}
	return out
}

// Levels returns the live nodes grouped by dependency depth: level 0 is the
// independent set, level i+1 contains nodes all of whose predecessors sit in
// levels ≤ i with at least one in level i. The paper's Figure 11 experiments
// are parameterised by the number of DAG levels.
func (g *Graph[T]) Levels() [][]NodeID {
	depth := make(map[NodeID]int, g.live)
	for _, n := range g.TopoSort() {
		d := 0
		for _, p := range g.Predecessors(n) {
			if depth[p]+1 > d {
				d = depth[p] + 1
			}
		}
		depth[n] = d
	}
	maxd := -1
	for _, d := range depth {
		if d > maxd {
			maxd = d
		}
	}
	levels := make([][]NodeID, maxd+1)
	for _, n := range g.Nodes() {
		levels[depth[n]] = append(levels[depth[n]], n)
	}
	return levels
}

// LongestPathLengths returns, for every live node, the number of nodes on
// the longest dependency chain starting at that node (counting itself).
// Critical-path schedulers (Dionysus) prioritise nodes with larger values.
func (g *Graph[T]) LongestPathLengths() map[NodeID]int {
	order := g.TopoSort()
	length := make(map[NodeID]int, len(order))
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		best := 0
		for _, s := range g.Successors(n) {
			if length[s] > best {
				best = length[s]
			}
		}
		length[n] = best + 1
	}
	return length
}

// WeightedCriticalPath returns, for every live node, the total weight of the
// heaviest dependency chain starting at that node, where weight(n) is
// supplied by the caller (e.g. estimated installation latency). Dionysus
// uses operation counts; Tango's concurrent-dependent extension uses
// latency estimates from the score database.
func (g *Graph[T]) WeightedCriticalPath(weight func(NodeID) float64) map[NodeID]float64 {
	order := g.TopoSort()
	total := make(map[NodeID]float64, len(order))
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		best := 0.0
		for _, s := range g.Successors(n) {
			if total[s] > best {
				best = total[s]
			}
		}
		total[n] = best + weight(n)
	}
	return total
}

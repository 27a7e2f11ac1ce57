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
	"slices"
	"sync"
)

// NodeID identifies a node within one Graph. IDs are dense and assigned by
// AddNode in increasing order starting from zero.
type NodeID int

// Graph is a mutable DAG with arbitrary per-node payloads.
// The zero value is an empty graph ready for use.
//
// Alongside the adjacency lists the graph maintains an incremental Kahn
// frontier: a live-indegree counter per node and the set of live nodes whose
// counter is zero. RemoveBatch updates both in O(out-degree), so the
// scheduler's round loop never rescans the whole graph. (The from-scratch
// scan lives in frontier_test.go as the differential test's reference.)
type Graph[T any] struct {
	payload []T
	succ    [][]NodeID
	pred    [][]NodeID
	removed []bool
	live    int

	// indeg[i] counts live predecessors of live node i (stale for removed
	// nodes). inFrontier marks nodes with indeg zero; frontier lists them.
	// While frontierClean holds, frontier is exactly the inFrontier nodes in
	// ascending order: AddNode and RemoveBatch preserve that state, so the
	// scheduler's Frontier → RemoveBatch loop sorts each round's newly
	// unblocked nodes once and nothing else. AddEdge leaves stale entries
	// behind (membership truth lives in inFrontier) and clears the flag;
	// Frontier() then compacts lazily.
	indeg         []int
	inFrontier    []bool
	frontier      []NodeID
	frontierClean bool
	// unblocked is RemoveBatch's result buffer, reused across batches.
	unblocked []NodeID

	// pathLen memoises LongestPathLengths (indexed by NodeID) while pathValid
	// holds. The longest chain below a live node survives any removal of a
	// node without live predecessors — no live chain runs through it — so a
	// frontier drain computes it once; AddNode, AddEdge and removing a node
	// that still has live predecessors invalidate. pathMu serialises the
	// lazy fill among concurrent readers; mutators are exclusive by contract
	// and write pathValid directly.
	pathMu    sync.Mutex
	pathLen   []int
	pathValid bool
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
	g.pathValid = false
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
	g.pathValid = false
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

// detach removes a checked-live node, decrements its live successors'
// indegree counters, marks newly-unblocked successors as frontier members
// and appends them to *emit.
func (g *Graph[T]) detach(id NodeID, emit *[]NodeID) {
	g.removed[id] = true
	g.live--
	g.inFrontier[id] = false
	if g.indeg[id] > 0 {
		// Chains from its live predecessors ran through this node.
		g.pathValid = false
	}
	for _, s := range g.succ[id] {
		if g.removed[s] {
			continue
		}
		g.indeg[s]--
		if g.indeg[s] == 0 {
			g.inFrontier[s] = true
			*emit = append(*emit, s)
		}
	}
}

// RemoveBatch removes every node in ids (all must be live; duplicates are
// rejected as ErrBadNode on the second occurrence) and returns the nodes the
// batch newly unblocked — live nodes whose last live predecessor was in the
// batch — in ascending ID order. Nodes removed by the batch itself are never
// reported, so issuing a frontier slice plus co-issued followers works. ids
// may be the slice Frontier() returned. The result is owned by the graph and
// valid until the next mutation. Cost is O(Σ out-degree(ids) + k log k + f)
// for k unblocked nodes and f frontier entries, independent of graph size,
// and it leaves a compacted frontier compacted: the k nodes are sorted here,
// once, and merged into the surviving frontier.
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
	promoted := g.unblocked[:0]
	for _, id := range ids {
		g.detach(id, &promoted)
	}
	// A batch member can be "unblocked" by an earlier member before its own
	// detach; filter those and sort what remains.
	out := promoted[:0]
	for _, id := range promoted {
		if !g.removed[id] {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	g.unblocked = out
	if g.frontierClean {
		g.mergeIntoFrontier(out)
	} else {
		g.frontier = append(g.frontier, out...)
	}
	return out, nil
}

// mergeIntoFrontier rebuilds a compacted frontier after a batch removal: the
// surviving entries (still sorted) merged with the sorted, disjoint set of
// newly unblocked nodes. Runs only after the batch has been fully iterated,
// so it may overwrite a caller's ids that alias the frontier.
func (g *Graph[T]) mergeIntoFrontier(unblocked []NodeID) {
	kept := g.frontierMembers()
	// Merge from the back so survivors never need a second buffer.
	i, j := len(kept)-1, len(unblocked)-1
	merged := slices.Grow(kept, len(unblocked))[:len(kept)+len(unblocked)]
	for k := len(merged) - 1; j >= 0; k-- {
		if i >= 0 && merged[i] > unblocked[j] {
			merged[k] = merged[i]
			i--
		} else {
			merged[k] = unblocked[j]
			j--
		}
	}
	g.frontier = merged
}

// frontierMembers filters the frontier slice in place down to the entries
// that are still members, keeping their order.
func (g *Graph[T]) frontierMembers() []NodeID {
	kept := g.frontier[:0]
	for _, id := range g.frontier {
		if g.inFrontier[id] {
			kept = append(kept, id)
		}
	}
	return kept
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
	kept := g.frontierMembers()
	slices.Sort(kept)
	// A node that left and re-entered the frontier between compactions
	// appears twice.
	g.frontier = slices.Compact(kept)
	g.frontierClean = true
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

// appendRoots appends the live nodes without live predecessors to dst in
// ascending order by scanning the counters — Frontier() without its lazy
// compaction, so read-only and safe beside concurrent readers.
func (g *Graph[T]) appendRoots(dst []NodeID) []NodeID {
	for i, d := range g.indeg {
		if d == 0 && !g.removed[i] {
			dst = append(dst, NodeID(i))
		}
	}
	return dst
}

// anyTopoOrder returns the live nodes in some topological order in O(n + e):
// Kahn's algorithm with the output slice doubling as the FIFO ready queue.
func (g *Graph[T]) anyTopoOrder() []NodeID {
	indeg := slices.Clone(g.indeg)
	order := g.appendRoots(make([]NodeID, 0, g.live))
	for head := 0; head < len(order); head++ {
		for _, s := range g.succ[order[head]] {
			if g.removed[s] {
				continue
			}
			indeg[s]--
			if indeg[s] == 0 {
				order = append(order, s)
			}
		}
	}
	return order
}

// Levels returns the live nodes grouped by dependency depth: level 0 is the
// independent set, level i+1 contains nodes all of whose predecessors sit in
// levels ≤ i with at least one in level i. The paper's Figure 11 experiments
// are parameterised by the number of DAG levels.
func (g *Graph[T]) Levels() [][]NodeID {
	depth := make([]int, len(g.payload))
	maxd := -1
	for _, n := range g.anyTopoOrder() {
		d := 0
		for _, p := range g.pred[n] {
			if !g.removed[p] && depth[p]+1 > d {
				d = depth[p] + 1
			}
		}
		depth[n] = d
		if d > maxd {
			maxd = d
		}
	}
	levels := make([][]NodeID, maxd+1)
	for i, d := range depth {
		if !g.removed[i] {
			levels[d] = append(levels[d], NodeID(i))
		}
	}
	return levels
}

// LongestPathLengths returns, indexed by NodeID, the number of nodes on the
// longest dependency chain starting at each live node (counting itself);
// entries of removed nodes are meaningless. Critical-path schedulers
// (Dionysus) prioritise nodes with larger values. The table is computed once
// and memoised until a mutation can change it (see Graph.pathLen), so asking
// once per switch per round costs one lock. It is owned by the graph,
// read-only, valid until the next mutation, and safe to request from
// concurrent readers.
func (g *Graph[T]) LongestPathLengths() []int {
	g.pathMu.Lock()
	defer g.pathMu.Unlock()
	if !g.pathValid {
		length := slices.Grow(g.pathLen[:0], len(g.payload))[:len(g.payload)]
		order := g.anyTopoOrder()
		for i := len(order) - 1; i >= 0; i-- {
			n := order[i]
			best := 0
			for _, s := range g.succ[n] {
				if !g.removed[s] && length[s] > best {
					best = length[s]
				}
			}
			length[n] = best + 1
		}
		g.pathLen, g.pathValid = length, true
	}
	return g.pathLen
}

// Package topo provides the network-topology substrate for Tango's
// network-wide experiments (§7.2): graph and path primitives, the triangle
// hardware testbed, a reconstruction of Google's B4 inter-datacenter
// backbone, max-min fair traffic-engineering allocation, and the diffing of
// two allocations into per-switch rule changes with the reverse-path update
// dependencies consistent updates require.
package topo

import (
	"sort"
)

// Graph is an undirected graph of named switches with per-link capacities.
type Graph struct {
	nodes map[string]bool
	adj   map[string]map[string]float64 // adj[a][b] = capacity
	// sorted caches the Nodes() result; nil means stale. The TE diff path
	// calls Nodes per allocation round, so rebuilding the sorted slice on
	// every call dominated MaxMinFair profiles at fleet scale.
	sorted []string
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{nodes: map[string]bool{}, adj: map[string]map[string]float64{}}
}

// AddNode adds a switch.
func (g *Graph) AddNode(name string) {
	if !g.nodes[name] {
		g.nodes[name] = true
		g.adj[name] = map[string]float64{}
		g.sorted = nil
	}
}

// AddLink adds a bidirectional link with the given capacity.
func (g *Graph) AddLink(a, b string, capacity float64) {
	g.AddNode(a)
	g.AddNode(b)
	g.adj[a][b] = capacity
	g.adj[b][a] = capacity
	g.sorted = nil
}

// RemoveLink deletes the link (the LF scenario's failure event).
func (g *Graph) RemoveLink(a, b string) {
	delete(g.adj[a], b)
	delete(g.adj[b], a)
	g.sorted = nil
}

// Capacity returns the link's capacity (0 if absent).
func (g *Graph) Capacity(a, b string) float64 { return g.adj[a][b] }

// Nodes returns switch names in sorted order. The slice is cached between
// mutations (AddNode/AddLink/RemoveLink invalidate it) and shared across
// calls — callers must treat it as read-only.
func (g *Graph) Nodes() []string {
	if g.sorted == nil {
		g.sorted = make([]string, 0, len(g.nodes))
		for n := range g.nodes {
			g.sorted = append(g.sorted, n)
		}
		sort.Strings(g.sorted)
	}
	return g.sorted
}

// Neighbors returns a node's neighbours in sorted order.
func (g *Graph) Neighbors(n string) []string {
	out := make([]string, 0, len(g.adj[n]))
	for m := range g.adj[n] {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// ShortestPath returns a minimum-hop path from src to dst (inclusive),
// or nil when unreachable. Ties break toward lexicographically smaller
// neighbours, keeping routing deterministic.
func (g *Graph) ShortestPath(src, dst string) []string {
	if src == dst {
		return []string{src}
	}
	prev := map[string]string{src: src}
	queue := []string{src}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, m := range g.Neighbors(n) {
			if _, seen := prev[m]; seen {
				continue
			}
			prev[m] = n
			if m == dst {
				return rebuild(prev, src, dst)
			}
			queue = append(queue, m)
		}
	}
	return nil
}

func rebuild(prev map[string]string, src, dst string) []string {
	var rev []string
	for n := dst; n != src; n = prev[n] {
		rev = append(rev, n)
	}
	rev = append(rev, src)
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// KShortestPaths returns up to k loop-free paths from src to dst, shortest
// first, found by iterative link pruning (an edge-disjoint-leaning
// approximation sufficient for two-path TE).
func (g *Graph) KShortestPaths(src, dst string, k int) [][]string {
	var paths [][]string
	pruned := NewGraph()
	for _, n := range g.Nodes() {
		pruned.AddNode(n)
	}
	for _, a := range g.Nodes() {
		for b, c := range g.adj[a] {
			if a < b {
				pruned.AddLink(a, b, c)
			}
		}
	}
	for len(paths) < k {
		p := pruned.ShortestPath(src, dst)
		if p == nil {
			break
		}
		paths = append(paths, p)
		for i := 0; i+1 < len(p); i++ {
			pruned.RemoveLink(p[i], p[i+1])
		}
	}
	return paths
}

// B4 returns a reconstruction of Google's 12-site B4 backbone from the
// SIGCOMM'13 paper's topology figure. Exact link capacities were not
// published; uniform capacities are used, which preserves everything the
// TE experiment consumes (path diversity and shared-bottleneck structure).
func B4() *Graph {
	g := NewGraph()
	links := [][2]string{
		{"b4-01", "b4-02"}, {"b4-01", "b4-03"}, {"b4-02", "b4-03"},
		{"b4-02", "b4-05"}, {"b4-03", "b4-04"}, {"b4-03", "b4-05"},
		{"b4-04", "b4-05"}, {"b4-04", "b4-06"}, {"b4-05", "b4-07"},
		{"b4-06", "b4-07"}, {"b4-06", "b4-08"}, {"b4-07", "b4-09"},
		{"b4-08", "b4-09"}, {"b4-08", "b4-10"}, {"b4-09", "b4-11"},
		{"b4-10", "b4-11"}, {"b4-10", "b4-12"}, {"b4-11", "b4-12"},
		{"b4-07", "b4-08"},
	}
	for _, l := range links {
		g.AddLink(l[0], l[1], 100)
	}
	return g
}

// Demand is one end-to-end traffic demand.
type Demand struct {
	FlowID uint32
	Src    string
	Dst    string
	// Rate is the requested rate; max-min allocation may grant less.
	Rate float64
}

// Allocation maps a flow to its assigned path (node list, inclusive).
type Allocation map[uint32][]string

// MaxMinFair performs progressive-filling max-min fair allocation of the
// demands over their given paths (the B4 paper's allocation style): all
// unfrozen flows grow at one rate; when a link saturates, its flows freeze.
// It returns each flow's granted rate.
func MaxMinFair(g *Graph, paths Allocation, demands []Demand) map[uint32]float64 {
	type link struct{ a, b string }
	norm := func(a, b string) link {
		if a > b {
			a, b = b, a
		}
		return link{a, b}
	}
	// Residual capacity and link membership.
	residual := map[link]float64{}
	members := map[link][]uint32{}
	active := map[uint32]bool{}
	rates := map[uint32]float64{}
	want := map[uint32]float64{}
	for _, d := range demands {
		p := paths[d.FlowID]
		if len(p) < 2 {
			continue
		}
		active[d.FlowID] = true
		want[d.FlowID] = d.Rate
		for i := 0; i+1 < len(p); i++ {
			l := norm(p[i], p[i+1])
			if _, ok := residual[l]; !ok {
				residual[l] = g.Capacity(p[i], p[i+1])
			}
			members[l] = append(members[l], d.FlowID)
		}
	}
	for len(active) > 0 {
		// Smallest per-flow headroom across links and demand caps.
		delta := -1.0
		for l, cap := range residual {
			n := 0
			for _, f := range members[l] {
				if active[f] {
					n++
				}
			}
			if n == 0 {
				continue
			}
			if h := cap / float64(n); delta < 0 || h < delta {
				delta = h
			}
		}
		for f := range active {
			if h := want[f] - rates[f]; h < delta || delta < 0 {
				delta = h
			}
		}
		if delta <= 1e-12 {
			delta = 0
		}
		// Apply the increment.
		for f := range active {
			rates[f] += delta
		}
		for l := range residual {
			n := 0
			for _, f := range members[l] {
				if active[f] {
					n++
				}
			}
			residual[l] -= delta * float64(n)
		}
		// Freeze satisfied flows and flows on saturated links.
		for f := range active {
			if rates[f] >= want[f]-1e-12 {
				delete(active, f)
			}
		}
		for l, cap := range residual {
			if cap <= 1e-9 {
				for _, f := range members[l] {
					delete(active, f)
				}
			}
		}
		if delta == 0 {
			break
		}
	}
	return rates
}

// ChangeKind labels a rule change produced by allocation diffing.
type ChangeKind int

// Rule-change kinds.
const (
	ChangeAdd ChangeKind = iota
	ChangeMod
	ChangeDel
)

// String implements fmt.Stringer.
func (k ChangeKind) String() string {
	switch k {
	case ChangeAdd:
		return "add"
	case ChangeMod:
		return "mod"
	default:
		return "del"
	}
}

// RuleChange is one per-switch operation required to move a flow from its
// old path to its new one. DependsOn is the index (within the returned
// slice) of the change that must complete first, or -1: new-path rules
// install from destination to source so a packet never meets a missing
// next hop, and the source switch flips last.
type RuleChange struct {
	Switch    string
	Kind      ChangeKind
	DependsOn int
}

// DiffAssignments computes the rule changes turning oldA into newA.
// Per flow: switches only on the new path get adds, switches on both paths
// get mods, switches only on the old path get dels (issued after the
// source flip, depending on it). Add/mod chains run reverse-path.
func DiffAssignments(oldA, newA Allocation) []RuleChange {
	var out []RuleChange
	flows := make([]uint32, 0, len(newA))
	for f := range newA {
		flows = append(flows, f)
	}
	sort.Slice(flows, func(i, j int) bool { return flows[i] < flows[j] })
	for _, f := range flows {
		oldP, newP := oldA[f], newA[f]
		if samePath(oldP, newP) {
			continue
		}
		onOld := map[string]bool{}
		for _, s := range oldP {
			onOld[s] = true
		}
		onNew := map[string]bool{}
		for _, s := range newP {
			onNew[s] = true
		}
		// Reverse-path add/mod chain (skip the destination, which needs no
		// forwarding rule).
		prev := -1
		for i := len(newP) - 2; i >= 0; i-- {
			sw := newP[i]
			kind := ChangeAdd
			if onOld[sw] {
				kind = ChangeMod
			}
			out = append(out, RuleChange{Switch: sw, Kind: kind, DependsOn: prev})
			prev = len(out) - 1
		}
		// Old-path-only switches clean up after the source flip.
		for i := 0; i+1 < len(oldP); i++ {
			sw := oldP[i]
			if !onNew[sw] {
				out = append(out, RuleChange{Switch: sw, Kind: ChangeDel, DependsOn: prev})
			}
		}
	}
	return out
}

func samePath(a, b []string) bool {
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

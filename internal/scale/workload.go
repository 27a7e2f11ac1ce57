package scale

import (
	"tango/internal/topo"
)

// workload.go lays flows out over the B4 fabric and turns the harness'
// control-plane decisions (TE re-allocation, link failure, restoration)
// into per-site operation lists. Everything here runs on the harness
// goroutine between epochs: shards only ever *execute* the opSpec lists,
// so planning can read cross-site state (loads, paths, the topology graph)
// without synchronisation.

// Flow-ID address blocks. Probe addresses repeat every 1<<24 IDs, so all
// three populations stay below that bound and clear of each other:
// resident flows are blocked per ordered site pair at pair*flowStride,
// churn and inference mint from dedicated high bases.
const (
	flowStride    = 1 << 16
	residentBase  = uint32(1)
	churnFlowBase = uint32(12 << 20)
	inferFlowBase = uint32(14 << 20)
	// rulePriority is shared by resident rules, churn installs, and
	// inference probe rules. One priority keeps every install an O(1)
	// append into the sorted software table (no memmove at the front of a
	// ~100K-entry slice) and zeroes the TCAM shift term of the virtual
	// cost model, so neither real nor virtual time depends on table size.
	rulePriority = uint16(100)
	// blockFlows is the layout granularity: pairs gain flows in blocks so
	// the greedy fill interleaves pairs fairly.
	blockFlows = 256
	// maxPairFlows caps one pair's population, bounding the FlowMod storm
	// a single TE move can emit.
	maxPairFlows = 8192
	// siteCap bounds planned residency per site: TCAM (2048) + software
	// (1<<17) minus headroom for churn installs and inference transients.
	siteCap = 2048 + 1<<17 - 10240
)

// flowBase returns the first resident flow ID of ordered pair p.
func flowBase(p int) uint32 { return residentBase + uint32(p)*flowStride }

// op kinds executed by shards.
const (
	opAdd = uint8(iota)
	opMod
	opDel
)

// opSpec is one planned control-plane operation: apply kind to every
// resident flow of pair, forwarding out port (adds/mods). Shards expand it
// into per-flow FlowMods; keeping it pair-granular makes the plan lists a
// few entries long regardless of flow count. Layout is gated in
// layout_test.go: phases append thousands of these per storm epoch.
type opSpec struct {
	pair int32
	port uint16
	kind uint8
}

// pairInfo is one ordered site pair and its currently installed path.
type pairInfo struct {
	path     []string
	src, dst int32
}

// move is one planned pair migration.
type move struct {
	pair     int32
	old, new []string
}

// buildPairs enumerates ordered pairs over the sorted site list with their
// initial shortest paths.
func (h *harness) buildPairs() {
	n := len(h.names)
	h.pairs = make([]pairInfo, 0, n*(n-1))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			h.pairs = append(h.pairs, pairInfo{
				src:  int32(i),
				dst:  int32(j),
				path: h.g.ShortestPath(h.names[i], h.names[j]),
			})
		}
	}
	h.counts = make([]int32, len(h.pairs))
	h.siteLoad = make([]int, n)
}

// layout fills pair populations round-robin in blockFlows blocks until the
// fleet-wide resident-rule target is met, each site capped at siteCap.
// Returns the planned resident rule count (flows × on-path switches,
// destination excluded).
func (h *harness) layout(target int) int {
	planned := 0
	for planned < target {
		progressed := false
		for p := range h.pairs {
			if planned >= target {
				break
			}
			if h.counts[p] >= maxPairFlows {
				continue
			}
			path := h.pairs[p].path
			if len(path) < 2 || !h.roomFor(path, nil, blockFlows) {
				continue
			}
			h.addLoad(path, nil, blockFlows)
			h.counts[p] += blockFlows
			planned += blockFlows * (len(path) - 1)
			progressed = true
		}
		if !progressed {
			break
		}
	}
	return planned
}

// roomFor reports whether every switch on path (destination excluded, and
// excluding switches also on except) can absorb n more resident rules.
func (h *harness) roomFor(path, except []string, n int) bool {
	for i := 0; i+1 < len(path); i++ {
		if onPath(except, path[i]) {
			continue
		}
		if h.siteLoad[h.siteIdx[path[i]]]+n > siteCap {
			return false
		}
	}
	return true
}

// addLoad charges n rules to every switch on path except the destination
// and switches shared with except (whose rules are modified in place).
func (h *harness) addLoad(path, except []string, n int) {
	for i := 0; i+1 < len(path); i++ {
		if onPath(except, path[i]) {
			continue
		}
		h.siteLoad[h.siteIdx[path[i]]] += n
	}
}

func onPath(path []string, sw string) bool {
	for _, s := range path {
		if s == sw {
			return true
		}
	}
	return false
}

// installPlan seeds every site's phase-A op list with the initial adds, in
// pair order — the per-site install order that makes "TCAM = first 2048
// installs" a deterministic statement.
func (h *harness) installPlan() {
	for p := range h.pairs {
		if h.counts[p] == 0 {
			continue
		}
		path := h.pairs[p].path
		for i := 0; i+1 < len(path); i++ {
			st := h.sites[h.siteIdx[path[i]]]
			st.opsA = append(st.opsA, opSpec{pair: int32(p), port: st.ports[path[i+1]], kind: opAdd})
		}
	}
}

// applyMoves turns accepted pair migrations into per-site phase-A (adds and
// mods, reverse-path ordered by DiffAssignments) and phase-B (dels) op
// lists, and updates pair paths and site loads.
func (h *harness) applyMoves(moves []move) {
	if len(moves) == 0 {
		return
	}
	oldA, newA := topo.Allocation{}, topo.Allocation{}
	newBy := map[uint32][]string{}
	for _, mv := range moves {
		oldA[uint32(mv.pair)] = mv.old
		newA[uint32(mv.pair)] = mv.new
		newBy[uint32(mv.pair)] = mv.new
	}
	for _, ch := range topo.DiffAssignments(oldA, newA) {
		st := h.sites[h.siteIdx[ch.Switch]]
		sp := opSpec{pair: int32(ch.FlowID)}
		switch ch.Kind {
		case topo.ChangeDel:
			sp.kind = opDel
			st.opsB = append(st.opsB, sp)
		default:
			sp.kind = opAdd
			if ch.Kind == topo.ChangeMod {
				sp.kind = opMod
			}
			sp.port = st.ports[nextHop(newBy[ch.FlowID], ch.Switch)]
			st.opsA = append(st.opsA, sp)
		}
	}
	for _, mv := range moves {
		n := int(h.counts[mv.pair])
		h.addLoad(mv.new, mv.old, n)
		h.addLoad(mv.old, mv.new, -n)
		h.pairs[mv.pair].path = mv.new
		h.res.PairMoves++
	}
}

// nextHop returns the node after sw on path ("" when sw is absent or last —
// callers only ask for switches DiffAssignments placed on the path).
func nextHop(path []string, sw string) string {
	for i := 0; i+1 < len(path); i++ {
		if path[i] == sw {
			return path[i+1]
		}
	}
	return ""
}

// planTE runs one network-wide max-min fair re-allocation round: draw fresh
// demands, allocate over current paths, and migrate the most starved pairs
// onto their best alternate path, capacity permitting.
func (h *harness) planTE() {
	demands := make([]topo.Demand, len(h.pairs))
	paths := topo.Allocation{}
	for p, pi := range h.pairs {
		demands[p] = topo.Demand{
			FlowID: uint32(p),
			Src:    h.names[pi.src],
			Dst:    h.names[pi.dst],
			Rate:   1 + 3*h.rng.Float64(),
		}
		paths[uint32(p)] = pi.path
	}
	granted := topo.MaxMinFair(h.g, paths, demands)

	type starved struct {
		pair int32
		gap  float64
	}
	var cands []starved
	for p := range h.pairs {
		if gap := demands[p].Rate - granted[uint32(p)]; gap > 1e-9 && h.counts[p] > 0 {
			cands = append(cands, starved{int32(p), gap})
		}
	}
	// Largest starvation first; pair index breaks ties deterministically.
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && (cands[j].gap > cands[j-1].gap ||
			(cands[j].gap == cands[j-1].gap && cands[j].pair < cands[j-1].pair)); j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	var moves []move
	for _, c := range cands {
		if len(moves) >= h.o.MaxMoves {
			break
		}
		pi := h.pairs[c.pair]
		var alt []string
		for _, p := range h.g.KShortestPaths(h.names[pi.src], h.names[pi.dst], 2) {
			if !samePath(p, pi.path) {
				alt = p
				break
			}
		}
		if alt == nil || !h.roomFor(alt, pi.path, int(h.counts[c.pair])) {
			h.res.MovesSkipped++
			continue
		}
		moves = append(moves, move{pair: c.pair, old: pi.path, new: alt})
		h.addLoad(alt, pi.path, int(h.counts[c.pair])) // reserve while planning
		h.addLoad(pi.path, alt, -int(h.counts[c.pair]))
	}
	// applyMoves re-charges loads; undo the planning reservation first.
	for _, mv := range moves {
		h.addLoad(mv.new, mv.old, -int(h.counts[mv.pair]))
		h.addLoad(mv.old, mv.new, int(h.counts[mv.pair]))
	}
	h.applyMoves(moves)
}

// planFail removes the storm link and re-paths every pair riding it.
func (h *harness) planFail() {
	h.g.RemoveLink(failLinkA, failLinkB)
	var moves []move
	for p, pi := range h.pairs {
		if h.counts[p] == 0 || !usesLink(pi.path, failLinkA, failLinkB) {
			continue
		}
		alt := h.g.ShortestPath(h.names[pi.src], h.names[pi.dst])
		if alt == nil || !h.roomFor(alt, pi.path, int(h.counts[p])) {
			h.res.MovesSkipped++
			continue
		}
		h.saved[int32(p)] = pi.path
		moves = append(moves, move{pair: int32(p), old: pi.path, new: alt})
		h.addLoad(alt, pi.path, int(h.counts[p]))
		h.addLoad(pi.path, alt, -int(h.counts[p]))
	}
	for _, mv := range moves {
		h.addLoad(mv.new, mv.old, -int(h.counts[mv.pair]))
		h.addLoad(mv.old, mv.new, int(h.counts[mv.pair]))
	}
	h.applyMoves(moves)
}

// planRestore brings the failed link back and returns displaced pairs to
// their pre-failure paths.
func (h *harness) planRestore() {
	h.g.AddLink(failLinkA, failLinkB, failLinkCap)
	var moves []move
	for p := range h.pairs {
		old, ok := h.saved[int32(p)]
		if !ok {
			continue
		}
		cur := h.pairs[p].path
		if samePath(cur, old) || !h.roomFor(old, cur, int(h.counts[p])) {
			if !samePath(cur, old) {
				h.res.MovesSkipped++
			}
			continue
		}
		moves = append(moves, move{pair: int32(p), old: cur, new: old})
		h.addLoad(old, cur, int(h.counts[p]))
		h.addLoad(cur, old, -int(h.counts[p]))
	}
	for _, mv := range moves {
		h.addLoad(mv.new, mv.old, -int(h.counts[mv.pair]))
		h.addLoad(mv.old, mv.new, int(h.counts[mv.pair]))
	}
	h.applyMoves(moves)
	h.saved = map[int32][]string{}
}

// The storm severs a central B4 link; uniform capacities make the exact
// choice immaterial, a middle link just maximises affected pairs.
const (
	failLinkA   = "b4-05"
	failLinkB   = "b4-07"
	failLinkCap = 100
)

func usesLink(path []string, a, b string) bool {
	for i := 0; i+1 < len(path); i++ {
		if (path[i] == a && path[i+1] == b) || (path[i] == b && path[i+1] == a) {
			return true
		}
	}
	return false
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

// Package classbench generates synthetic access-control rule sets in the
// spirit of the ClassBench suite the paper's §7.1 uses: rules with
// realistic overlap structure, from which dependency constraints and the
// two priority assignments of the evaluation — minimal "Topological"
// priorities and 1-1 "R" priorities (derived with the Maple-style
// algorithm) — are computed.
//
// Substitution note (DESIGN.md): the original ClassBench seed files are not
// redistributable; this generator reproduces what the experiments consume —
// a rule list in precedence order, its overlap-induced dependency DAG, and
// the two priority assignments — with counts parameterised to match
// Table 2.
package classbench

import (
	"math/rand"
	"net/netip"

	"tango/internal/flowtable"
	"tango/internal/packet"
)

// Options parameterises Generate.
type Options struct {
	// NumRules is the total rule count.
	NumRules int
	// Families is the number of nested-rule families (each family is a
	// chain of increasingly general rules, the source of deep dependency
	// structure in ACLs).
	Families int
	// MaxDepth caps family chain depth; the deepest family determines the
	// number of distinct topological priorities. Capped internally at 52
	// (the maximum nesting depth expressible over src/dst prefixes plus
	// protocol and port wildcards).
	MaxDepth int
	// Seed drives all randomness.
	Seed int64
}

// RuleSet is a generated ACL: Rules[0] has the highest match precedence.
type RuleSet struct {
	Rules []flowtable.Match

	deps   [][]int // deps[i] = later rules that i must out-prioritise
	levels []int
}

// maxFamilyDepth is the deepest expressible nesting chain.
const maxFamilyDepth = 52

// Generate builds a rule set.
func Generate(opts Options) *RuleSet {
	if opts.NumRules <= 0 {
		opts.NumRules = 1000
	}
	if opts.Families <= 0 {
		opts.Families = 8
	}
	if opts.MaxDepth <= 0 {
		opts.MaxDepth = 30
	}
	if opts.MaxDepth > maxFamilyDepth {
		opts.MaxDepth = maxFamilyDepth
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	rs := &RuleSet{}

	// Family chains: family f's rule k is strictly nested inside rule k+1
	// (more specific ⇒ earlier precedence). The first family gets exactly
	// MaxDepth rules so the level count is deterministic.
	remaining := opts.NumRules
	for f := 0; f < opts.Families && remaining > 0; f++ {
		depth := opts.MaxDepth
		if f > 0 {
			depth = 2 + rng.Intn(opts.MaxDepth-1)
		}
		if depth > remaining {
			depth = remaining
		}
		srcHost := [4]byte{byte(10 + f), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))}
		dstHost := [4]byte{byte(100 + f), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))}
		for k := depth - 1; k >= 0; k-- { // most specific first
			rs.Rules = append(rs.Rules, familyRule(srcHost, dstHost, k))
			remaining--
		}
	}

	// Independent filler rules: near-disjoint host pairs in a high block.
	for remaining > 0 {
		m := flowtable.Match{
			Fields: flowtable.FieldNwSrc | flowtable.FieldNwDst,
			NwSrc:  hostPrefix([4]byte{192, byte(rng.Intn(64)), byte(rng.Intn(256)), byte(rng.Intn(256))}, 32),
			NwDst:  hostPrefix([4]byte{203, byte(rng.Intn(64)), byte(rng.Intn(256)), byte(rng.Intn(256))}, 32),
		}
		rs.Rules = append(rs.Rules, m)
		remaining--
	}

	// Shuffle precedence order across families so dependency levels
	// interleave like a real ACL (stable nesting order is preserved by
	// the dependency analysis, not by position).
	rng.Shuffle(len(rs.Rules), func(i, j int) {
		rs.Rules[i], rs.Rules[j] = rs.Rules[j], rs.Rules[i]
	})

	rs.analyze()
	return rs
}

// familyRule builds nesting step k of a family: larger k ⇒ more general.
// The specialisation order (most specific to most general) peels off:
// transport ports, protocol, then dst prefix bits 32→8, then src 32→8.
func familyRule(srcHost, dstHost [4]byte, k int) flowtable.Match {
	m := flowtable.Match{Fields: flowtable.FieldNwSrc | flowtable.FieldNwDst}
	// Depth positions: k=0 most specific.
	srcBits, dstBits := 32, 32
	extras := 0
	switch {
	case k <= 2:
		extras = 3 - k // 3,2,1 extra constrained fields at k=0,1,2
	case k <= 26:
		dstBits = 32 - (k - 2) // 31 … 8
	default:
		dstBits = 8
		srcBits = 32 - (k - 26) // 31 … 8 at k=27…50; k=51 ⇒ src /7
		if srcBits < 1 {
			srcBits = 1
		}
	}
	m.NwSrc = hostPrefix(srcHost, srcBits)
	m.NwDst = hostPrefix(dstHost, dstBits)
	if extras >= 1 {
		m.Fields |= flowtable.FieldNwProto
		m.NwProto = packet.IPProtocolTCP
	}
	if extras >= 2 {
		m.Fields |= flowtable.FieldTpDst
		m.TpDst = 443
	}
	if extras >= 3 {
		m.Fields |= flowtable.FieldTpSrc
		m.TpSrc = 1234
	}
	return m
}

func hostPrefix(host [4]byte, bits int) netip.Prefix {
	return netip.PrefixFrom(netip.AddrFrom4(host), bits).Masked()
}

// analyze builds the dependency lists and topological levels.
// Precedence rule: for i < j with overlapping matches, rule i (earlier in
// the ACL, first-match-wins) must carry strictly higher priority than j.
func (rs *RuleSet) analyze() {
	n := len(rs.Rules)
	rs.deps = make([][]int, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rs.Rules[i].Overlaps(&rs.Rules[j]) {
				rs.deps[i] = append(rs.deps[i], j)
			}
		}
	}
	// level[i] = length of the longest out-prioritisation chain below i.
	rs.levels = make([]int, n)
	for i := n - 1; i >= 0; i-- {
		max := -1
		for _, j := range rs.deps[i] {
			if rs.levels[j] > max {
				max = rs.levels[j]
			}
		}
		rs.levels[i] = max + 1
	}
}

// NumTopoPriorities returns the number of distinct topological priorities
// (the "Topological Priorities" column of Table 2).
func (rs *RuleSet) NumTopoPriorities() int {
	max := 0
	for _, l := range rs.levels {
		if l > max {
			max = l
		}
	}
	return max + 1
}

// TopologicalPriorities assigns the minimal priority set: priority = base +
// dependency level, so overlapping rules are strictly ordered while
// independent rules share priorities (cheap same-priority installs).
func (rs *RuleSet) TopologicalPriorities(base uint16) []uint16 {
	out := make([]uint16, len(rs.Rules))
	for i, l := range rs.levels {
		out[i] = base + uint16(l)
	}
	return out
}

// RPriorities assigns unique 1-1 priorities consistent with the dependency
// constraints ("R Priorities" of Table 2): rules are ranked by (level,
// index) and receive strictly increasing priorities in that order.
func (rs *RuleSet) RPriorities(base uint16) []uint16 {
	n := len(rs.Rules)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	// Sort ascending by level; ties by descending ACL index so that within
	// one level later (more general) rules get lower priorities.
	sortByLevel(idx, rs.levels)
	out := make([]uint16, n)
	for rank, i := range idx {
		out[i] = base + uint16(rank)
	}
	return out
}

// sortByLevel sorts idx ascending by level, breaking ties by descending
// index (insertion-stable for our purposes).
func sortByLevel(idx []int, levels []int) {
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0; j-- {
			a, b := idx[j-1], idx[j]
			if levels[a] > levels[b] || (levels[a] == levels[b] && a < b) {
				idx[j-1], idx[j] = b, a
			} else {
				break
			}
		}
	}
}

// Table2Configs are the three generator configurations standing in for the
// paper's three ClassBench files, parameterised to match Table 2's flow
// counts. Chain depth is capped by what IPv4 prefix nesting can express, so
// file 1's topological priority count saturates at 52 rather than the
// paper's 64 (recorded in EXPERIMENTS.md).
var Table2Configs = []Options{
	{NumRules: 829, Families: 10, MaxDepth: 52, Seed: 101},
	{NumRules: 989, Families: 9, MaxDepth: 38, Seed: 202},
	{NumRules: 972, Families: 9, MaxDepth: 33, Seed: 303},
}

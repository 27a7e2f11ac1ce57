// Package switchsim emulates OpenFlow switches with diverse implementation
// properties: multi-level flow tables (TCAM, kernel, user space), vendor
// cache-replacement policies, TCAM width modes, and calibrated control- and
// data-plane latency models. The emulator reproduces the observable
// behaviours §3 of the Tango paper measured on three proprietary hardware
// switches and Open vSwitch — latency tiers, table-size limits, and
// priority-dependent rule-installation costs — so that Tango's probing and
// inference engines can be exercised without the authors' testbed.
package switchsim

import "fmt"

// Attribute is one of the per-flow values a cache policy may consult
// (the ATTRIB set of the paper's switch model, §5.1).
type Attribute int

// Cache-policy attributes.
const (
	// AttrInsertion is the flow's installation order (time since insertion).
	AttrInsertion Attribute = iota
	// AttrUseTime is the order of the flow's most recent data-plane hit.
	AttrUseTime
	// AttrTraffic is the flow's matched-packet count.
	AttrTraffic
	// AttrPriority is the flow's OpenFlow rule priority.
	AttrPriority
)

// String implements fmt.Stringer.
func (a Attribute) String() string {
	switch a {
	case AttrInsertion:
		return "insertion"
	case AttrUseTime:
		return "use_time"
	case AttrTraffic:
		return "traffic"
	case AttrPriority:
		return "priority"
	}
	return fmt.Sprintf("attr(%d)", int(a))
}

// Attributes lists every policy attribute, in declaration order.
var Attributes = []Attribute{AttrInsertion, AttrUseTime, AttrTraffic, AttrPriority}

// SortKey is one component of a lexicographic cache policy: an attribute
// plus a direction (the MONOTONE assumption — the comparison is monotone,
// either increasing or decreasing).
type SortKey struct {
	Attr Attribute
	// HighIsBetter reports whether larger attribute values make a flow more
	// likely to be *kept* in the cache. LRU keeps recently used flows
	// (high use time), so {AttrUseTime, true}; FIFO keeps the oldest flows,
	// so {AttrInsertion, false}.
	HighIsBetter bool
}

// String implements fmt.Stringer.
func (k SortKey) String() string {
	dir := "low"
	if k.HighIsBetter {
		dir = "high"
	}
	return fmt.Sprintf("%s(keep-%s)", k.Attr, dir)
}

// Policy is a lexicographic composite of sort keys (the LEX assumption):
// the cache retains the flows that order best under Keys[0], breaking ties
// with Keys[1], and so on. The zero value (no keys) is invalid for
// policy-managed switches.
//
// Custom, when set, replaces the LEX composite with a policy outside the
// paper's model (custompolicy.go); Keys is ignored. Custom policies score
// entries through per-switch state, so the pure Policy.Better helper
// cannot evaluate them and degenerates to insertion order — switches route
// every comparison through their instantiated state instead.
type Policy struct {
	Keys   []SortKey
	Custom *CustomPolicy
}

// Named building-block policies.
var (
	// PolicyFIFO keeps the oldest-installed flows in the cache (Switch #1's
	// software table works as a FIFO buffer for TCAM).
	PolicyFIFO = Policy{Keys: []SortKey{{AttrInsertion, false}}}
	// PolicyLRU keeps the most recently used flows.
	PolicyLRU = Policy{Keys: []SortKey{{AttrUseTime, true}}}
	// PolicyLFU keeps the most heavily used flows, breaking ties by recency.
	PolicyLFU = Policy{Keys: []SortKey{{AttrTraffic, true}, {AttrUseTime, true}}}
	// PolicyPriority keeps the highest-priority flows, breaking ties by
	// traffic and then recency.
	PolicyPriority = Policy{Keys: []SortKey{{AttrPriority, true}, {AttrTraffic, true}, {AttrUseTime, true}}}
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	if p.Custom != nil {
		return p.Custom.Name
	}
	if len(p.Keys) == 0 {
		return "none"
	}
	s := p.Keys[0].String()
	for _, k := range p.Keys[1:] {
		s += "," + k.String()
	}
	return s
}

// Equal reports whether two policies have identical key sequences. Custom
// policies compare by name; a custom policy never equals a LEX composite.
func (p Policy) Equal(o Policy) bool {
	if p.Custom != nil || o.Custom != nil {
		return p.Custom != nil && o.Custom != nil && p.Custom.Name == o.Custom.Name
	}
	if len(p.Keys) != len(o.Keys) {
		return false
	}
	for i := range p.Keys {
		if p.Keys[i] != o.Keys[i] {
			return false
		}
	}
	return true
}

// attrValue reads attribute a of entry e as an integer for comparison.
func attrValue(e *entry, a Attribute) uint64 {
	switch a {
	case AttrInsertion:
		return e.insertSeq
	case AttrUseTime:
		return e.useSeq
	case AttrTraffic:
		return e.traffic
	case AttrPriority:
		return uint64(e.rule.Priority)
	}
	return 0
}

// Better reports whether entry a should be preferred (kept in cache) over
// entry b under the policy. Entries that compare equal on every key fall
// back to insertion order (older wins), which keeps the ordering total as
// the paper's model requires.
func (p Policy) Better(a, b *entry) bool {
	for _, k := range p.Keys {
		va, vb := attrValue(a, k.Attr), attrValue(b, k.Attr)
		if va == vb {
			continue
		}
		if k.HighIsBetter {
			return va > vb
		}
		return va < vb
	}
	return a.insertSeq < b.insertSeq
}

// compile specialises Better for the policy's key list. Single-key policies
// — the whole named matrix — get a comparator with the attribute access
// inlined, replacing the per-comparison key loop and attribute switch that
// dominate heap sift costs under touch-heavy probing. Multi-key composites
// keep the generic form. Each branch reproduces Better exactly: primary
// attribute, then the insertion-order tiebreak.
func (p Policy) compile() func(a, b *entry) bool {
	if len(p.Keys) != 1 {
		return p.Better
	}
	k := p.Keys[0]
	switch {
	case k.Attr == AttrInsertion && k.HighIsBetter:
		return func(a, b *entry) bool {
			if a.insertSeq != b.insertSeq {
				return a.insertSeq > b.insertSeq
			}
			return a.insertSeq < b.insertSeq
		}
	case k.Attr == AttrInsertion:
		return func(a, b *entry) bool { return a.insertSeq < b.insertSeq }
	case k.Attr == AttrUseTime && k.HighIsBetter:
		return func(a, b *entry) bool {
			if a.useSeq != b.useSeq {
				return a.useSeq > b.useSeq
			}
			return a.insertSeq < b.insertSeq
		}
	case k.Attr == AttrUseTime:
		return func(a, b *entry) bool {
			if a.useSeq != b.useSeq {
				return a.useSeq < b.useSeq
			}
			return a.insertSeq < b.insertSeq
		}
	case k.Attr == AttrTraffic && k.HighIsBetter:
		return func(a, b *entry) bool {
			if a.traffic != b.traffic {
				return a.traffic > b.traffic
			}
			return a.insertSeq < b.insertSeq
		}
	case k.Attr == AttrTraffic:
		return func(a, b *entry) bool {
			if a.traffic != b.traffic {
				return a.traffic < b.traffic
			}
			return a.insertSeq < b.insertSeq
		}
	case k.Attr == AttrPriority && k.HighIsBetter:
		return func(a, b *entry) bool {
			if a.rule.Priority != b.rule.Priority {
				return a.rule.Priority > b.rule.Priority
			}
			return a.insertSeq < b.insertSeq
		}
	case k.Attr == AttrPriority:
		return func(a, b *entry) bool {
			if a.rule.Priority != b.rule.Priority {
				return a.rule.Priority < b.rule.Priority
			}
			return a.insertSeq < b.insertSeq
		}
	}
	return p.Better
}

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
// entries through per-switch state, so a switch keys its entries through
// its instantiated state instead of the composite.
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

// cacheKey is an entry's place in its cache policy's order: a fixed-width
// unsigned tuple compared word by word, where larger means kept. The
// eviction and promotion heaps (evictindex.go) store it inline, so a sift
// compares integers and never reads the arena. Every cache policy has
// exactly one definition of its order, its key function; the admission
// test "contender beats victim" is a key comparison too.
type cacheKey struct{ hi, lo uint64 }

func (a cacheKey) less(b cacheKey) bool {
	return a.hi < b.hi || a.hi == b.hi && a.lo < b.lo
}

// trafficBits is traffic's width when priority shares its key word. A LEX
// composite that ranks both priority and traffic ahead of its serial key
// packs them into one word, priority's 16 bits and traffic's 48, so traffic
// orders exactly up to 2^48 − 1 packets per rule. Past that bound it
// saturates: the emulator would have to feed one rule 2^48 data-plane
// packets, some 325 days at ten million emulated packets a second.
const trafficBits = 48

// keyField is one LEX component's place in a cache key.
type keyField struct {
	attr Attribute
	high bool  // HighIsBetter
	bits uint8 // width in its word
}

// value reads the field from e: saturated to its width, complemented
// within it when low values are kept.
func (f keyField) value(e *entry) uint64 {
	mask := uint64(1)<<f.bits - 1 // all ones for 64 bits
	v := min(attrValue(e, f.attr), mask)
	if !f.high {
		v ^= mask
	}
	return v
}

// lexKey is a LEX composite compiled to a key: its components up to and
// including the first serial key (insertion or use time), with ^insertSeq
// appended when there is none. The serial component differs between any
// two entries — insertion and use times are both drawn from the switch's
// one event counter — so later keys and the insertion-order tie-break of
// the paper's total order can never decide, and are dropped. The last
// component fills the low word; the others share the high word.
type lexKey struct {
	fields [3]keyField
	n      int // fields in use
	// touch is +1 when a data-plane touch raises an entry's key, −1 when
	// it lowers it, 0 when the key reads no touch-driven attribute. It is
	// the direction of the first traffic or use-time component: a touch
	// strictly advances both attributes, so the first one decides.
	touch int
}

// lexKey compiles the policy's key. Repeated attributes are skipped: they
// compare equal wherever their first occurrence does.
func (p Policy) lexKey() lexKey {
	var k lexKey
	var seen [AttrPriority + 1]bool
	serial := false
	for _, sk := range p.Keys {
		if sk.Attr < 0 || sk.Attr > AttrPriority || seen[sk.Attr] {
			continue
		}
		seen[sk.Attr] = true
		k.fields[k.n] = keyField{attr: sk.Attr, high: sk.HighIsBetter, bits: 64}
		k.n++
		if sk.Attr == AttrInsertion || sk.Attr == AttrUseTime {
			serial = true
			break
		}
	}
	if !serial {
		k.fields[k.n] = keyField{attr: AttrInsertion, bits: 64}
		k.n++
	}
	if k.n == 3 {
		// Priority and traffic share the high word.
		for i := range k.fields[:2] {
			k.fields[i].bits = 16
			if k.fields[i].attr == AttrTraffic {
				k.fields[i].bits = trafficBits
			}
		}
	}
	for _, f := range k.fields[:k.n] {
		if f.attr == AttrTraffic || f.attr == AttrUseTime {
			k.touch = -1
			if f.high {
				k.touch = 1
			}
			break
		}
	}
	return k
}

// of computes e's key.
func (k *lexKey) of(e *entry) cacheKey {
	last := k.n - 1
	var hi uint64
	for _, f := range k.fields[:last] {
		hi = hi<<f.bits | f.value(e)
	}
	return cacheKey{hi: hi, lo: k.fields[last].value(e)}
}

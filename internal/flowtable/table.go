package flowtable

import (
	"encoding/binary"
	"errors"
	"net/netip"
	"time"

	"tango/internal/packet"
)

// ActionType discriminates rule actions.
type ActionType uint8

// Supported actions. An empty action list means drop, as in OpenFlow.
const (
	// ActionOutput forwards matching frames to Port.
	ActionOutput ActionType = iota
	// ActionController punts matching frames to the controller.
	ActionController
)

// Action is one forwarding action of a rule.
type Action struct {
	Type ActionType
	Port uint16
}

// Output is shorthand for an output action to port p.
func Output(p uint16) []Action { return []Action{{Type: ActionOutput, Port: p}} }

// Rule is one flow entry: a match, a priority, and actions, plus the
// per-flow statistics OpenFlow switches maintain and Tango's switch model
// assumes cache policies read (time since insertion, time since last use,
// traffic count, rule priority — the ATTRIB set of §5.1).
// Field order is packing-conscious (narrow fields are grouped at the
// tail), gated by the structlayout test: rules are slab-allocated by the
// thousands.
type Rule struct {
	Match   Match
	Actions []Action
	Cookie  uint64

	// Stats are updated by the pipeline on every matched frame.
	Packets uint64
	Bytes   uint64

	// InstalledAt and LastUsedAt are bookkeeping for cache policies.
	InstalledAt time.Time
	LastUsedAt  time.Time

	// seq is a monotonically increasing insertion sequence number used to
	// keep ordering deterministic among equal-priority rules and to serve
	// as a tie-free "time since insertion" attribute.
	seq uint64

	// Ext is an opaque handle slot for the rule's owner. The switch emulator
	// stores the rule's arena handle here so hot paths resolve rule→entry
	// with one integer index instead of a map lookup or interface assertion;
	// zero means "no owner record". The table itself never reads it.
	Ext int32

	Priority uint16

	// IdleTimeout and HardTimeout expire the rule (seconds; 0 = never):
	// idle counts from the last matched packet, hard from installation.
	IdleTimeout uint16
	HardTimeout uint16
	// SendFlowRem requests a FLOW_REMOVED notification when the rule dies.
	SendFlowRem bool
}

// Table is a priority-ordered flow table. Rules are kept sorted by
// descending priority; among equal priorities, earlier insertions come
// first. This mirrors a TCAM whose physical order encodes priority, which is
// exactly why rule insertion cost depends on priority order (§3 of the
// paper): inserting above existing entries displaces them.
//
// Table is not safe for concurrent use; the switch emulator serialises
// access.
type Table struct {
	rules   []*Rule
	nextSeq uint64
	// Capacity limits the number of rules; 0 means unbounded (software
	// tables are "virtually unlimited").
	Capacity int

	// exact indexes rules that pin both IPv4 endpoints to single addresses
	// (the shape every probe rule has), keyed by the two addresses packed
	// into one uint64. Lookups check the index plus the small residue of
	// non-indexable rules, which keeps probing workloads — tens of thousands
	// of packets against thousands of rules — linear instead of quadratic,
	// and the integer key hashes several times faster than a struct of two
	// netip.Addr (which dominated lookup profiles). wild holds the
	// non-indexable rules in table order.
	exact map[uint64]exactBucket
	wild  []*Rule
}

// exactBucket holds the rules sharing one exact-index key. The first rule is
// inline: almost every key maps to exactly one rule, and keeping that rule
// out of a slice saves a heap allocation per insert — which bulk probing
// workloads pay tens of thousands of times.
type exactBucket struct {
	one  *Rule
	more []*Rule
}

// packAddrs packs two IPv4 addresses into the exact-index key. ok is false
// if either address is not IPv4.
func packAddrs(src, dst netip.Addr) (key uint64, ok bool) {
	if !src.Is4() || !dst.Is4() {
		return 0, false
	}
	s, d := src.As4(), dst.As4()
	return uint64(binary.BigEndian.Uint32(s[:]))<<32 |
		uint64(binary.BigEndian.Uint32(d[:])), true
}

// ExactKey returns the exact-index key for m, and whether m is indexable: it
// must constrain both nw_src and nw_dst to single IPv4 addresses (/32), so
// only frames carrying exactly those addresses can match it. Exported so the
// switch emulator can key its own per-rule indexes the same way.
func ExactKey(m *Match) (uint64, bool) {
	if !m.Has(FieldNwSrc) || !m.Has(FieldNwDst) {
		return 0, false
	}
	if m.NwSrc.Bits() != 32 || m.NwDst.Bits() != 32 {
		return 0, false
	}
	return packAddrs(m.NwSrc.Addr(), m.NwDst.Addr())
}

// FrameKey returns the exact-index key for frame f's IPv4 addresses; ok is
// false for non-IPv4 frames. It is the frame-side counterpart of ExactKey:
// a frame can match an exact-indexed rule only when their keys agree.
func FrameKey(f *packet.Frame) (uint64, bool) {
	if !f.HasIPv4 {
		return 0, false
	}
	if k, ok := f.IP.AddrWord(); ok {
		return k, true
	}
	return packAddrs(f.IP.Src, f.IP.Dst)
}

// WildLen reports how many non-exact-indexable rules the table holds.
func (t *Table) WildLen() int { return len(t.wild) }

// WildSingleton returns the table's only non-exact rule, or nil unless
// exactly one is resident.
func (t *Table) WildSingleton() *Rule {
	if len(t.wild) == 1 {
		return t.wild[0]
	}
	return nil
}

// indexKey is the internal alias for ExactKey.
func indexKey(m *Match) (uint64, bool) { return ExactKey(m) }

// indexInsert registers r in the lookup acceleration structures.
func (t *Table) indexInsert(r *Rule) {
	if k, ok := indexKey(&r.Match); ok {
		if t.exact == nil {
			// Capacity-bounded tables fill right up in probing workloads;
			// pre-sizing skips the incremental rehashes on the way there.
			// "Virtually unlimited" tables are capped — they never fill.
			hint := t.Capacity
			if hint > 2048 {
				hint = 2048
			}
			t.exact = make(map[uint64]exactBucket, hint)
		}
		b := t.exact[k]
		if b.one == nil {
			b.one = r
		} else {
			b.more = append(b.more, r)
		}
		t.exact[k] = b
		return
	}
	// Maintain wild in table order: descending priority, FIFO within equal.
	pos := searchByOrder(t.wild, r.Priority, r.seq)
	t.wild = append(t.wild, nil)
	copy(t.wild[pos+1:], t.wild[pos:])
	t.wild[pos] = r
}

// indexRemove unregisters r.
func (t *Table) indexRemove(r *Rule) {
	if k, ok := indexKey(&r.Match); ok {
		b := t.exact[k]
		if b.one == r {
			if n := len(b.more); n > 0 {
				b.one, b.more = b.more[n-1], b.more[:n-1]
				t.exact[k] = b
			} else {
				delete(t.exact, k)
			}
			return
		}
		for i, rr := range b.more {
			if rr == r {
				b.more = append(b.more[:i], b.more[i+1:]...)
				t.exact[k] = b
				return
			}
		}
		return
	}
	if i, ok := findByOrder(t.wild, r); ok {
		t.wild = append(t.wild[:i], t.wild[i+1:]...)
	}
}

// searchByOrder returns the index at which a rule with the given (priority,
// seq) key belongs in a slice kept in table order (descending priority, FIFO
// — ascending seq — within equal priority).
func searchByOrder(rules []*Rule, priority uint16, seq uint64) int {
	lo, hi := 0, len(rules)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		m := rules[mid]
		if m.Priority > priority || (m.Priority == priority && m.seq < seq) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// findByOrder locates r in a table-ordered slice by binary search on its
// (priority, seq) key.
func findByOrder(rules []*Rule, r *Rule) (int, bool) {
	i := searchByOrder(rules, r.Priority, r.seq)
	return i, i < len(rules) && rules[i] == r
}

// Errors returned by table mutations.
var (
	ErrTableFull = errors.New("flowtable: table full")
	ErrNotFound  = errors.New("flowtable: no matching rule")
)

// Len returns the number of installed rules.
func (t *Table) Len() int { return len(t.rules) }

// Rules returns the rules in TCAM (priority) order. The slice is shared;
// callers must not mutate it.
func (t *Table) Rules() []*Rule { return t.rules }

// insertionPoint returns the index at which a rule with priority p would be
// inserted: after all rules with priority >= p.
func (t *Table) insertionPoint(p uint16) int {
	lo, hi := 0, len(t.rules)
	for lo < hi {
		mid := (lo + hi) / 2
		if t.rules[mid].Priority >= p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// CountHigher returns the number of rules with priority strictly greater
// than p. In a bottom-packed TCAM these are the entries that must shift to
// make room below them for a new priority-p rule, which is why descending-
// priority installation is expensive (§3 of the paper).
func (t *Table) CountHigher(p uint16) int {
	lo, hi := 0, len(t.rules)
	for lo < hi {
		mid := (lo + hi) / 2
		if t.rules[mid].Priority > p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Insert adds rule r at its priority position, stamping bookkeeping fields.
// It returns the number of displaced entries, or ErrTableFull when at
// capacity. Duplicate (match, priority) pairs overwrite the existing rule's
// actions in place, per OpenFlow ADD semantics, at zero shift cost.
func (t *Table) Insert(r *Rule, now time.Time) (shifted int, err error) {
	if existing := t.find(&r.Match, r.Priority); existing != nil {
		existing.Actions = r.Actions
		existing.Cookie = r.Cookie
		return 0, nil
	}
	if t.Capacity > 0 && len(t.rules) >= t.Capacity {
		return 0, ErrTableFull
	}
	pos := t.insertionPoint(r.Priority)
	shifted = len(t.rules) - pos
	r.seq = t.nextSeq
	t.nextSeq++
	r.InstalledAt = now
	r.LastUsedAt = now
	t.rules = append(t.rules, nil)
	copy(t.rules[pos+1:], t.rules[pos:])
	t.rules[pos] = r
	t.indexInsert(r)
	return shifted, nil
}

// find returns the rule with an identical match and priority, or nil. It is
// served by the lookup index: an indexable match can only equal rules in its
// exact bucket, any other match only rules in the wild residue — so the
// duplicate check every Insert performs touches a handful of rules instead
// of scanning the table.
func (t *Table) find(m *Match, priority uint16) *Rule {
	if k, ok := indexKey(m); ok {
		b := t.exact[k]
		if b.one != nil && b.one.Priority == priority && b.one.Match.Same(m) {
			return b.one
		}
		for _, r := range b.more {
			if r.Priority == priority && r.Match.Same(m) {
				return r
			}
		}
		return nil
	}
	for _, r := range t.wild {
		if r.Priority == priority && r.Match.Same(m) {
			return r
		}
	}
	return nil
}

// Find returns the installed rule with an identical match and priority, or
// nil. It is an indexed point lookup, not a packet classification — use
// Lookup to match frames.
func (t *Table) Find(m *Match, priority uint16) *Rule { return t.find(m, priority) }

// Delete removes the rule identified by (match, priority) and returns it.
func (t *Table) Delete(m *Match, priority uint16) (*Rule, error) {
	r := t.find(m, priority)
	if r == nil {
		return nil, ErrNotFound
	}
	t.Remove(r)
	return r, nil
}

// Remove deletes the given rule pointer if present. The rule's position is
// found by binary search on its (priority, seq) key.
//
// The slice is closed up from whichever end is nearer, deque-style: clearing
// a single-priority probing fill deletes the oldest rule of an
// equal-priority run — the front of the table — and shifting the (empty)
// prefix instead of the whole tail turns that from an O(n) barriered pointer
// copy per delete into a constant-time head advance.
func (t *Table) Remove(target *Rule) bool {
	i, ok := findByOrder(t.rules, target)
	if !ok {
		return false
	}
	if i < len(t.rules)-i-1 {
		copy(t.rules[1:i+1], t.rules[:i])
		t.rules[0] = nil // drop the stale duplicate for GC
		t.rules = t.rules[1:]
	} else {
		t.rules = append(t.rules[:i], t.rules[i+1:]...)
	}
	t.indexRemove(target)
	return true
}

// Lookup returns the highest-priority rule matching frame f on inPort, or
// nil on a miss. Statistics are NOT updated; the pipeline decides where a
// frame "hits" across its table hierarchy and then calls Touch. Ties between
// equal-priority rules resolve to the earliest installed, exactly as the
// priority-ordered scan of the full table would.
func (t *Table) Lookup(f *packet.Frame, inPort uint16) *Rule {
	return t.LookupWhere(f, inPort, nil)
}

// LookupWhere is Lookup over the rules keep accepts; a nil keep accepts
// every rule. A switch whose tiers share one table looks up one tier at a
// time this way.
func (t *Table) LookupWhere(f *packet.Frame, inPort uint16, keep func(*Rule) bool) *Rule {
	var best *Rule
	if f.HasIPv4 {
		if k, ok := packAddrs(f.IP.Src, f.IP.Dst); ok {
			b := t.exact[k]
			if b.one != nil && (keep == nil || keep(b.one)) && b.one.Match.Matches(f, inPort) {
				best = b.one
			}
			for _, r := range b.more {
				if (keep != nil && !keep(r)) || !r.Match.Matches(f, inPort) {
					continue
				}
				if best == nil || r.Priority > best.Priority ||
					(r.Priority == best.Priority && r.seq < best.seq) {
					best = r
				}
			}
		}
	}
	for _, r := range t.wild {
		if best != nil && (r.Priority < best.Priority ||
			(r.Priority == best.Priority && r.seq > best.seq)) {
			break // wild is in table order; nothing later can beat best
		}
		if (keep == nil || keep(r)) && r.Match.Matches(f, inPort) {
			return r
		}
	}
	return best
}

// Touch records a frame hit on rule r.
func (r *Rule) Touch(bytes int, now time.Time) {
	r.Packets++
	r.Bytes += uint64(bytes)
	r.LastUsedAt = now
}

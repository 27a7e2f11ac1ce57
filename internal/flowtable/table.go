package flowtable

import (
	"errors"
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

	// InstalledAt and LastUsedAt are bookkeeping for timeouts, in Unix
	// nanoseconds: integers, so a touch writes no pointer and a rule
	// carries no location.
	InstalledAt int64
	LastUsedAt  int64

	// seq is a monotonically increasing insertion sequence number used to
	// keep ordering deterministic among equal-priority rules and to serve
	// as a tie-free "time since insertion" attribute.
	seq uint64
	// next links the rules sharing this rule's ExactKey in table order; the
	// table's exact index holds the first of them.
	next *Rule

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
	// rules is the table in order. It ends where its backing array, all of
	// which buf spans, ends: the slots ahead of it are the ones front
	// removals vacated (see Remove), which makeRoom takes back.
	rules   []*Rule
	buf     []*Rule
	nextSeq uint64

	// exact indexes rules that pin both IPv4 endpoints to single addresses
	// (the shape every probe rule has) by ExactKey, holding the first of
	// each key's rules; Rule.next chains the rest in table order. Lookups
	// check one chain plus the small residue of non-indexable rules, which
	// keeps probing workloads — tens of thousands of packets against
	// thousands of rules — linear instead of quadratic. wild holds the
	// non-indexable rules in table order.
	exact KeyIndex[*Rule]
	wild  []*Rule
}

// NewTable returns an empty table whose rule slice and exact index are
// sized for about keys rules, so a table filled to that size neither grows
// nor rehashes on the way. The zero Table is usable too; it grows from
// empty.
func NewTable(keys int) *Table {
	t := &Table{buf: make([]*Rule, keys)}
	t.rules = t.buf[:0]
	t.exact.init(keys)
	return t
}

// Reset removes every rule, keeping the rule slice's and the index's
// capacity.
func (t *Table) Reset() {
	clear(t.rules)
	t.rules = t.buf[:0]
	clear(t.wild)
	t.wild = t.wild[:0]
	t.exact.Reset()
	t.nextSeq = 0
}

// ExactKey returns the exact-index key for m, and whether m is indexable: it
// must constrain both nw_src and nw_dst to single IPv4 addresses (/32), so
// only frames carrying exactly those addresses can match it.
func ExactKey(m *Match) (uint64, bool) {
	if !m.Has(FieldNwSrc) || !m.Has(FieldNwDst) {
		return 0, false
	}
	if m.NwSrc.Bits() != 32 || m.NwDst.Bits() != 32 {
		return 0, false
	}
	return packet.PackAddrs(m.NwSrc.Addr(), m.NwDst.Addr())
}

// FrameKey returns the exact-index key for frame f's IPv4 addresses; ok is
// false for non-IPv4 frames. It is the frame-side counterpart of ExactKey:
// a frame can match an exact-indexed rule only when their keys agree.
func FrameKey(f *packet.Frame) (uint64, bool) {
	if !f.HasIPv4 {
		return 0, false
	}
	return f.IP.Addrs()
}

// ExactRules returns the first, in table order, of the rules whose ExactKey
// is k, or nil; NextExact walks the rest.
func (t *Table) ExactRules(k uint64) *Rule { return t.exact.Get(k) }

// NextExact returns the rule after r, in table order, among the rules
// sharing r's ExactKey, or nil.
func (r *Rule) NextExact() *Rule { return r.next }

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

// indexInsert registers r, the table's newest rule, in the lookup
// acceleration structures. In its key's chain r goes behind every rule of
// equal or higher priority.
func (t *Table) indexInsert(r *Rule) {
	if k, ok := ExactKey(&r.Match); ok {
		head := t.exact.Get(k)
		if head == nil || head.Priority < r.Priority {
			r.next = head
			t.exact.Put(k, r)
			return
		}
		prev := head
		for prev.next != nil && prev.next.Priority >= r.Priority {
			prev = prev.next
		}
		r.next, prev.next = prev.next, r
		return
	}
	r.next = nil
	// Maintain wild in table order: descending priority, FIFO within equal.
	pos := searchByOrder(t.wild, r.Priority, r.seq)
	t.wild = append(t.wild, nil)
	copy(t.wild[pos+1:], t.wild[pos:])
	t.wild[pos] = r
}

// indexRemove unregisters r.
func (t *Table) indexRemove(r *Rule) {
	if k, ok := ExactKey(&r.Match); ok {
		switch head := t.exact.Get(k); {
		case head != r:
			for p := head; p != nil; p = p.next {
				if p.next == r {
					p.next = r.next
					break
				}
			}
		case r.next != nil:
			t.exact.Put(k, r.next)
		default:
			t.exact.Del(k)
		}
		r.next = nil
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

// ErrNotFound is returned by Delete when no rule has the match and priority.
var ErrNotFound = errors.New("flowtable: no matching rule")

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

// Insert adds rule r at its priority position, stamping bookkeeping fields,
// and returns the number of displaced entries. No installed rule may have
// r's match and priority: OpenFlow's ADD of an installed rule replaces it,
// which is the caller's to do (Find it first). err is always nil.
func (t *Table) Insert(r *Rule, now time.Time) (shifted int, err error) {
	pos := t.insertionPoint(r.Priority)
	shifted = len(t.rules) - pos
	r.seq = t.nextSeq
	t.nextSeq++
	r.InstalledAt = now.UnixNano()
	r.LastUsedAt = r.InstalledAt
	t.makeRoom()
	t.rules = append(t.rules, nil)
	copy(t.rules[pos+1:], t.rules[pos:])
	t.rules[pos] = r
	t.indexInsert(r)
	return shifted, nil
}

// makeRoom makes sure the rules slice can take one more rule without
// growing its backing array when the slots front removals vacated are at
// least a quarter of the rules: it slides the rules down over them, so a
// table that is emptied from the front and refilled — a probing clear, then
// the next fill — reuses one array. Otherwise it grows the array, which is
// what keeps the slide amortized O(1) per insert.
func (t *Table) makeRoom() {
	if len(t.rules) < cap(t.rules) {
		return
	}
	if vacated := cap(t.buf) - cap(t.rules); vacated > 0 && vacated >= len(t.rules)/4 {
		n := copy(t.buf, t.rules)
		clear(t.buf[n:])
		t.rules = t.buf[:n]
		return
	}
	t.rules = append(t.rules, nil)[:len(t.rules)]
	t.buf = t.rules[:cap(t.rules)]
}

// Find returns the installed rule with an identical match and priority, or
// nil. It is an indexed point lookup, not a packet classification — use
// Lookup to match frames: an indexable match can only equal rules in its
// key's chain, any other match only rules in the wild residue.
func (t *Table) Find(m *Match, priority uint16) *Rule {
	if k, ok := ExactKey(m); ok {
		for r := t.exact.Get(k); r != nil && r.Priority >= priority; r = r.next {
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

// Delete removes the rule identified by (match, priority) and returns it.
func (t *Table) Delete(m *Match, priority uint16) (*Rule, error) {
	r := t.Find(m, priority)
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
	if k, ok := FrameKey(f); ok {
		// The chain is in table order, so its first match is its best.
		for r := t.exact.Get(k); r != nil; r = r.next {
			if (keep == nil || keep(r)) && r.Match.Matches(f, inPort) {
				best = r
				break
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
	r.LastUsedAt = now.UnixNano()
}

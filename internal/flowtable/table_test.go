package flowtable

import (
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
	"time"

	"tango/internal/packet"
)

var t0 = time.Date(2014, 12, 2, 0, 0, 0, 0, time.UTC)

func mkRule(id uint32, prio uint16) *Rule {
	return &Rule{Match: ExactProbeMatch(id), Priority: prio, Actions: Output(1)}
}

func TestWidthClassification(t *testing.T) {
	cases := []struct {
		m    Match
		want Width
	}{
		{ExactProbeMatch(1), WidthL2L3},
		{L2ProbeMatch(1), WidthL2},
		{L3ProbeMatch(1), WidthL3},
		{Match{}, WidthNone},
		{Match{Fields: FieldInPort, InPort: 3}, WidthNone},
	}
	for _, c := range cases {
		if got := c.m.Width(); got != c.want {
			t.Errorf("Width(%s) = %v, want %v", c.m.String(), got, c.want)
		}
	}
}

func TestMatchesProbeFrame(t *testing.T) {
	raw, err := packet.BuildProbe(packet.ProbeSpec{FlowID: 9})
	if err != nil {
		t.Fatal(err)
	}
	f, err := decodeFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	m := ExactProbeMatch(9)
	if !m.Matches(f, 1) {
		t.Fatal("exact match failed on own probe frame")
	}
	other := ExactProbeMatch(10)
	if other.Matches(f, 1) {
		t.Fatal("match for flow 10 accepted flow 9's frame")
	}
	l2 := L2ProbeMatch(9)
	if !l2.Matches(f, 1) {
		t.Fatal("L2 match failed")
	}
	l3 := L3ProbeMatch(9)
	if !l3.Matches(f, 1) {
		t.Fatal("L3 match failed")
	}
}

func TestMatchInPortAndWildcard(t *testing.T) {
	raw, _ := packet.BuildProbe(packet.ProbeSpec{FlowID: 1})
	f, _ := decodeFrame(raw)
	m := Match{Fields: FieldInPort, InPort: 2}
	if m.Matches(f, 1) {
		t.Fatal("in_port=2 matched port 1")
	}
	if !m.Matches(f, 2) {
		t.Fatal("in_port=2 failed on port 2")
	}
	var any Match
	if !any.Matches(f, 7) {
		t.Fatal("wildcard match failed")
	}
}

func TestMatchL3OnNonIP(t *testing.T) {
	e := packet.Ethernet{EtherType: packet.EtherTypeARP}
	raw := e.AppendTo(nil)
	f, err := decodeFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	m := L3ProbeMatch(1)
	if m.Matches(f, 1) {
		t.Fatal("L3 match accepted non-IP frame")
	}
	tp := Match{Fields: FieldTpDst, TpDst: 80}
	if tp.Matches(f, 1) {
		t.Fatal("transport match accepted non-IP frame")
	}
}

func TestPrefixMatch(t *testing.T) {
	raw, _ := packet.BuildProbe(packet.ProbeSpec{FlowID: 300}) // 10.83.1.44
	f, _ := decodeFrame(raw)
	m := Match{Fields: FieldNwSrc, NwSrc: netip.MustParsePrefix("10.83.0.0/16")}
	if !m.Matches(f, 1) {
		t.Fatal("/16 prefix failed")
	}
	m.NwSrc = netip.MustParsePrefix("10.90.0.0/16")
	if m.Matches(f, 1) {
		t.Fatal("wrong /16 prefix matched")
	}
}

func TestCoversAndOverlaps(t *testing.T) {
	wide := Match{Fields: FieldNwDst, NwDst: netip.MustParsePrefix("10.0.0.0/8")}
	narrow := Match{Fields: FieldNwDst, NwDst: netip.MustParsePrefix("10.1.0.0/16")}
	if !wide.Covers(&narrow) {
		t.Fatal("/8 should cover /16")
	}
	if narrow.Covers(&wide) {
		t.Fatal("/16 should not cover /8")
	}
	if !wide.Overlaps(&narrow) || !narrow.Overlaps(&wide) {
		t.Fatal("nested prefixes must overlap")
	}
	disjoint := Match{Fields: FieldNwDst, NwDst: netip.MustParsePrefix("192.168.0.0/16")}
	if wide.Overlaps(&disjoint) {
		t.Fatal("disjoint prefixes overlap")
	}
	// A match constraining extra fields cannot cover one that doesn't.
	extra := Match{Fields: FieldNwDst | FieldTpDst, NwDst: netip.MustParsePrefix("10.0.0.0/8"), TpDst: 80}
	if extra.Covers(&narrow) {
		t.Fatal("more-specific fields cannot cover")
	}
	if !narrow.Covers(&narrow) {
		t.Fatal("match must cover itself")
	}
}

func TestSame(t *testing.T) {
	a := ExactProbeMatch(5)
	b := ExactProbeMatch(5)
	if !a.Same(&b) {
		t.Fatal("identical matches not Same")
	}
	c := ExactProbeMatch(6)
	if a.Same(&c) {
		t.Fatal("different matches Same")
	}
}

func TestInsertOrderAndShifts(t *testing.T) {
	var tbl Table
	// Ascending priority: every insert lands at the top — displaces all?
	// No: insertionPoint puts higher priority first; inserting ascending
	// priorities means each new rule goes *before* existing lower ones.
	// The shift count equals the number of rules with lower priority.
	s1, err := tbl.Insert(mkRule(1, 10), t0)
	if err != nil || s1 != 0 {
		t.Fatalf("first insert: shifted=%d err=%v", s1, err)
	}
	s2, _ := tbl.Insert(mkRule(2, 20), t0)
	if s2 != 1 {
		t.Fatalf("higher-priority insert shifted %d, want 1", s2)
	}
	s3, _ := tbl.Insert(mkRule(3, 5), t0)
	if s3 != 0 {
		t.Fatalf("lowest-priority insert shifted %d, want 0", s3)
	}
	if err := tbl.validate(); err != nil {
		t.Fatal(err)
	}
	prios := []uint16{20, 10, 5}
	for i, r := range tbl.Rules() {
		if r.Priority != prios[i] {
			t.Fatalf("position %d has priority %d, want %d", i, r.Priority, prios[i])
		}
	}
}

func TestInsertEqualPriorityFIFO(t *testing.T) {
	var tbl Table
	for id := uint32(0); id < 5; id++ {
		if shifted, err := tbl.Insert(mkRule(id, 100), t0); err != nil || shifted != 0 {
			t.Fatalf("equal-priority insert: shifted=%d err=%v", shifted, err)
		}
	}
	for i, r := range tbl.Rules() {
		if r.seq != uint64(i) {
			t.Fatalf("equal-priority order broken at %d", i)
		}
	}
}

func TestModifyDelete(t *testing.T) {
	var tbl Table
	tbl.Insert(mkRule(1, 10), t0)
	m := ExactProbeMatch(1)
	// A modify is a Find and an in-place action swap, as the switch does it.
	r := tbl.Find(&m, 10)
	if r == nil {
		t.Fatal("installed rule not found")
	}
	r.Actions = Output(4)
	if tbl.Rules()[0].Actions[0].Port != 4 {
		t.Fatal("modify did not take")
	}
	if tbl.Find(&m, 11) != nil {
		t.Fatal("found a rule at the wrong priority")
	}
	r, err := tbl.Delete(&m, 10)
	if err != nil || r == nil {
		t.Fatalf("delete: %v", err)
	}
	if tbl.Len() != 0 {
		t.Fatal("delete left rule behind")
	}
	if _, err := tbl.Delete(&m, 10); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete err = %v", err)
	}
}

func TestLookupPriorityWins(t *testing.T) {
	var tbl Table
	raw, _ := packet.BuildProbe(packet.ProbeSpec{FlowID: 77})
	f, _ := decodeFrame(raw)

	low := &Rule{Match: Match{}, Priority: 1, Actions: Output(1)} // match-all
	hi := mkRule(77, 500)
	hi.Actions = Output(2)
	tbl.Insert(low, t0)
	tbl.Insert(hi, t0)
	got := tbl.Lookup(f, 1)
	if got != hi {
		t.Fatal("lookup did not return highest-priority match")
	}
	// A frame matching only the wildcard rule falls back to it.
	raw2, _ := packet.BuildProbe(packet.ProbeSpec{FlowID: 78})
	f2, _ := decodeFrame(raw2)
	if got := tbl.Lookup(f2, 1); got != low {
		t.Fatal("wildcard fallback failed")
	}
}

func TestTouch(t *testing.T) {
	r := mkRule(1, 1)
	r.Touch(100, t0.Add(time.Second))
	r.Touch(50, t0.Add(2*time.Second))
	if r.Packets != 2 || r.Bytes != 150 {
		t.Fatalf("stats = %d pkts %d bytes", r.Packets, r.Bytes)
	}
	if !r.LastUsedAt.Equal(t0.Add(2 * time.Second)) {
		t.Fatal("LastUsedAt not updated")
	}
}

func TestTCAMSingleWideRejectsWide(t *testing.T) {
	tc := NewTCAM(TCAMConfig{Mode: ModeSingleWide, CapacityNarrow: 4})
	if tc.Admits(WidthL2L3) || tc.Fits(WidthL2L3) || tc.Take(WidthL2L3) {
		t.Fatal("single-wide TCAM accepts an L2+L3 entry")
	}
	if !tc.Admits(WidthL3) || !tc.Take(WidthL3) {
		t.Fatal("single-wide TCAM refuses an L3 entry")
	}
	if tc.effectiveCapacity(WidthL3) != 3 || tc.Len() != 1 {
		t.Fatalf("effective capacity = %d with %d entries, want 3 with 1", tc.effectiveCapacity(WidthL3), tc.Len())
	}
}

func TestTCAMDoubleWideFlat(t *testing.T) {
	// Switch #2 style: 2560 entries no matter the mix. Scaled to 6 here.
	tc := NewTCAM(TCAMConfig{Mode: ModeDoubleWide, CapacityNarrow: 6, CapacityWide: 6})
	for i := 0; i < 3; i++ {
		if !tc.Take(WidthL2) || !tc.Take(WidthL2L3) {
			t.Fatalf("entry pair %d refused", i)
		}
	}
	if tc.Take(WidthL2) || tc.Len() != 6 {
		t.Fatalf("full TCAM took a seventh entry (len %d)", tc.Len())
	}
}

func TestTCAMAdaptiveMixing(t *testing.T) {
	// Switch #3 style, scaled: 6 narrow or 3 wide.
	tc := NewTCAM(TCAMConfig{Mode: ModeAdaptive, CapacityNarrow: 6, CapacityWide: 3})
	// One wide entry consumes the space of two narrow ones.
	if !tc.Take(WidthL2L3) {
		t.Fatal("wide entry refused")
	}
	if got := tc.effectiveCapacity(WidthL2); got != 4 {
		t.Fatalf("narrow capacity after one wide = %d, want 4", got)
	}
	for i := 0; i < 4; i++ {
		if !tc.Take(WidthL2) {
			t.Fatalf("narrow entry %d refused", i)
		}
	}
	if tc.Fits(WidthL2) || tc.Fits(WidthL2L3) {
		t.Fatal("full TCAM still admits entries")
	}
	// Releasing the wide entry frees room for two narrow entries.
	tc.Release(WidthL2L3)
	if got := tc.effectiveCapacity(WidthL2); got != 2 {
		t.Fatalf("narrow capacity after release = %d, want 2", got)
	}
}

func TestTCAMRemoveReleasesSpace(t *testing.T) {
	tc := NewTCAM(TCAMConfig{Mode: ModeDoubleWide, CapacityNarrow: 1, CapacityWide: 1})
	if !tc.Take(WidthL2L3) {
		t.Fatal("empty TCAM refused an entry")
	}
	if tc.Take(WidthL2L3) {
		t.Fatal("one-entry TCAM took a second entry")
	}
	tc.Release(WidthL2L3)
	if tc.Len() != 0 || !tc.Take(WidthL2L3) {
		t.Fatalf("space not released: len %d", tc.Len())
	}
}

func TestTCAMTable1Capacities(t *testing.T) {
	// Full-scale checks against Table 1 of the paper.
	cases := []struct {
		name        string
		cfg         TCAMConfig
		width       Width
		wantInstall int
	}{
		{"switch1-single-L3", TCAMConfig{Mode: ModeSingleWide, CapacityNarrow: 4096}, WidthL3, 4096},
		{"switch1-double", TCAMConfig{Mode: ModeDoubleWide, CapacityNarrow: 2048, CapacityWide: 2048}, WidthL2L3, 2048},
		{"switch2-any", TCAMConfig{Mode: ModeDoubleWide, CapacityNarrow: 2560, CapacityWide: 2560}, WidthL3, 2560},
		{"switch3-narrow", TCAMConfig{Mode: ModeAdaptive, CapacityNarrow: 767, CapacityWide: 369}, WidthL3, 767},
		{"switch3-wide", TCAMConfig{Mode: ModeAdaptive, CapacityNarrow: 767, CapacityWide: 369}, WidthL2L3, 369},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tc := NewTCAM(c.cfg)
			n := 0
			for n <= c.wantInstall+10 && tc.Take(c.width) {
				n++
			}
			if n != c.wantInstall || tc.Len() != n {
				t.Fatalf("installed %d entries (len %d), want %d", n, tc.Len(), c.wantInstall)
			}
		})
	}
}

// Property: after any random sequence of inserts/deletes the table ordering
// invariants hold and lookups always return the first match in rule order.
func TestTableRandomOpsInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var tbl Table
		alive := map[uint32]uint16{}
		for op := 0; op < 200; op++ {
			id := uint32(rng.Intn(50))
			prio := uint16(rng.Intn(8) * 10)
			m := ExactProbeMatch(id)
			if rng.Float64() < 0.6 {
				if tbl.Find(&m, prio) != nil {
					continue // Insert's precondition: no identical rule
				}
				if _, err := tbl.Insert(mkRule(id, prio), t0); err != nil {
					return false
				}
				alive[id] = prio
			} else if p, ok := alive[id]; ok {
				if _, err := tbl.Delete(&m, p); err != nil {
					return false
				}
				delete(alive, id)
			}
			if tbl.validate() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the shift count Insert reports is the number of resident rules
// of lower priority — the entries a new rule displaces.
func TestShiftCostConsistency(t *testing.T) {
	f := func(prios []uint16) bool {
		var tbl Table
		for i, p := range prios {
			if i > 300 {
				break
			}
			want := 0
			for _, r := range tbl.Rules() {
				if r.Priority < p {
					want++
				}
			}
			got, err := tbl.Insert(mkRule(uint32(i), p), t0)
			if err != nil || got != want {
				return false
			}
		}
		return tbl.validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestLookupIndexEquivalence verifies the exact-IP index fast path returns
// exactly what a naive priority-ordered scan would, across random mixes of
// indexable (exact-IP) and wildcard rules and random probe frames — over the
// whole table and over a subset, the way a switch looks up one tier of a
// table its tiers share.
func TestLookupIndexEquivalence(t *testing.T) {
	naive := func(tbl *Table, f *packet.Frame, inPort uint16, keep func(*Rule) bool) *Rule {
		for _, r := range tbl.Rules() {
			if (keep == nil || keep(r)) && r.Match.Matches(f, inPort) {
				return r
			}
		}
		return nil
	}
	odd := func(r *Rule) bool { return r.Cookie%2 == 1 }
	agree := func(tbl *Table, fr *packet.Frame) bool {
		return tbl.Lookup(fr, 1) == naive(tbl, fr, 1, nil) &&
			tbl.LookupWhere(fr, 1, odd) == naive(tbl, fr, 1, odd)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var tbl Table
		valid := true
		insert := func(r *Rule) {
			if tbl.Find(&r.Match, r.Priority) == nil { // Insert's precondition
				tbl.Insert(r, t0)
			}
			if err := tbl.validate(); err != nil {
				t.Error(err)
				valid = false
			}
		}
		// Exact probe rules over a small flow space (collisions intended).
		for i := 0; i < 60; i++ {
			id := uint32(rng.Intn(20))
			prio := uint16(rng.Intn(5) * 10)
			insert(&Rule{Match: ExactProbeMatch(id), Priority: prio, Actions: Output(1), Cookie: uint64(i)})
		}
		// Wildcard rules: prefixes over the probe address space + match-all.
		for i := 0; i < 10; i++ {
			bits := 8 + rng.Intn(24)
			m := Match{
				Fields: FieldNwSrc,
				NwSrc:  netip.PrefixFrom(packet.ProbeSrcIP(uint32(rng.Intn(20))), bits).Masked(),
			}
			insert(&Rule{Match: m, Priority: uint16(rng.Intn(5) * 10), Actions: Output(2), Cookie: uint64(i)})
		}
		insert(&Rule{Match: Match{}, Priority: 0, Actions: Output(3)})
		if !valid {
			return false
		}

		for probe := 0; probe < 40; probe++ {
			raw, err := packet.BuildProbe(packet.ProbeSpec{FlowID: uint32(rng.Intn(25))})
			if err != nil {
				return false
			}
			fr, err := decodeFrame(raw)
			if err != nil {
				return false
			}
			if !agree(&tbl, fr) {
				return false
			}
		}
		// Also after random deletions.
		for _, r := range append([]*Rule(nil), tbl.Rules()...) {
			if rng.Float64() < 0.3 {
				tbl.Remove(r)
				if err := tbl.validate(); err != nil {
					t.Error(err)
					return false
				}
			}
		}
		for probe := 0; probe < 40; probe++ {
			raw, _ := packet.BuildProbe(packet.ProbeSpec{FlowID: uint32(rng.Intn(25))})
			fr, _ := decodeFrame(raw)
			if !agree(&tbl, fr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// validate checks internal ordering and index invariants; tests call it
// after randomised operation sequences. Every rule is reachable from its key
// (or sits in the wild residue), each key's chain is in table order, and the
// index counts exactly its occupied slots.
func (t *Table) validate() error {
	for i := 1; i < len(t.rules); i++ {
		a, b := t.rules[i-1], t.rules[i]
		if a.Priority < b.Priority {
			return fmt.Errorf("flowtable: priority order violated at %d (%d < %d)", i, a.Priority, b.Priority)
		}
		if a.Priority == b.Priority && a.seq > b.seq {
			return fmt.Errorf("flowtable: FIFO order violated among priority %d", a.Priority)
		}
	}
	for i := 1; i < len(t.wild); i++ {
		a, b := t.wild[i-1], t.wild[i]
		if a.Priority < b.Priority || (a.Priority == b.Priority && a.seq > b.seq) {
			return fmt.Errorf("flowtable: wild index order violated at %d", i)
		}
	}
	for _, r := range t.rules {
		k, ok := ExactKey(&r.Match)
		if !ok {
			if _, in := findByOrder(t.wild, r); !in {
				return fmt.Errorf("flowtable: wild rule %v is not in the wild residue", r.Match)
			}
			continue
		}
		p := t.exact.Get(k)
		for p != nil && p != r {
			p = p.next
		}
		if p == nil {
			return fmt.Errorf("flowtable: rule %v is unreachable from its key", r.Match)
		}
	}
	indexed, occupied := len(t.wild), 0
	for i, head := range t.exact.vals {
		if head == nil {
			continue
		}
		occupied++
		for r := head; r != nil; r = r.next {
			indexed++
			if k, _ := ExactKey(&r.Match); k != t.exact.keys[i] {
				return fmt.Errorf("flowtable: rule %v is chained under key %#x", r.Match, t.exact.keys[i])
			}
			if n := r.next; n != nil && (n.Priority > r.Priority || (n.Priority == r.Priority && n.seq < r.seq)) {
				return fmt.Errorf("flowtable: key %#x chain out of table order", t.exact.keys[i])
			}
		}
	}
	if occupied != t.exact.used {
		return fmt.Errorf("flowtable: exact index counts %d keys but holds %d", t.exact.used, occupied)
	}
	if indexed != len(t.rules) {
		return fmt.Errorf("flowtable: index holds %d rules, table %d", indexed, len(t.rules))
	}
	return nil
}

// effectiveCapacity returns how many more entries of width w fit right now.
func (t *TCAM) effectiveCapacity(w Width) int {
	u, ok := t.unitsFor(w)
	if !ok {
		return 0
	}
	return int((t.budgetUnits() - t.usedUnits) / u)
}

// decodeFrame is packet.DecodeInto on a fresh frame.
func decodeFrame(raw []byte) (*packet.Frame, error) {
	var f packet.Frame
	return &f, packet.DecodeInto(&f, raw)
}

package switchsim

import (
	"math/rand"
	"reflect"
	"testing"

	"tango/internal/flowtable"
	"tango/internal/openflow"
	"tango/internal/packet"
)

// TestNonStrictDeleteMatchesStrictDeletes holds a non-strict delete to
// strict deletes of its victims, one flow-mod each in table order, on twin
// switches built from one profile and seed and driven through one random
// history of adds (exact probe rules and narrower L3 ones, three
// priorities) and traffic. The delete covers an aligned block of probe
// flows (flowtable.ProbeBlockMatch, what a probe clear sends) or, one time
// in five, every rule. Cache policies: LEX and FDRC, dest-aggregate, whose
// keys move as rules leave, and keep-low-traffic; TCAMs: double-wide,
// single-wide and adaptive; and OVS with a kernel microflow cache.
func TestNonStrictDeleteMatchesStrictDeletes(t *testing.T) {
	policies := []Policy{PolicyFIFO, PolicyLRU, PolicyLFU, PolicyPriority, PolicyDestAggregate(), PolicyFDRC(16), keepLowTraffic}
	tcams := []flowtable.TCAMConfig{
		{Mode: flowtable.ModeDoubleWide, CapacityNarrow: 4, CapacityWide: 4},
		{Mode: flowtable.ModeSingleWide, CapacityNarrow: 4},
		{Mode: flowtable.ModeAdaptive, CapacityNarrow: 6, CapacityWide: 1},
		{Mode: flowtable.ModeAdaptive, CapacityNarrow: 5, CapacityWide: 3},
	}
	for seed := int64(0); seed < 1500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := TestSwitch(4, policies[rng.Intn(len(policies))])
		p.TCAM = tcams[rng.Intn(len(tcams))]
		if seed%8 == 7 {
			p = OVS()
			p.KernelCapacity = 6
		}
		defaultRoute := rng.Intn(2) == 0
		var history []twinOp
		for i, ops := 0, 5+rng.Intn(30); i < ops; i++ {
			op := twinOp{flow: uint32(8 + rng.Intn(24)), prio: uint16(10 * (1 + rng.Intn(3)))}
			switch rng.Intn(4) {
			case 0:
				op.l3 = true
			case 1:
				op.packets = 1 + rng.Intn(5)
			}
			history = append(history, op)
		}
		m := flowtable.ProbeBlockMatch(16, rng.Intn(4))
		if rng.Intn(5) == 0 {
			m = flowtable.Match{}
		}
		where := p.Name + " " + p.CachePolicy.String() + " " + p.TCAM.Mode.String() + ", seed " + itoa(uint64(seed))
		checkTwinDelete(t, where, p, seed, defaultRoute, history, m, uint32(8+rng.Intn(24)))
	}
}

// TestNonStrictDeleteRefillsLikeStrictDeletes pins two cases where one
// TCAM refill after the last victim would promote something else than a
// refill after each TCAM victim, which is why a non-strict delete refills
// after each victim, as a strict delete of it does. Each deletes flows 16
// and 17: a TCAM victim first in table order, then a software one.
func TestNonStrictDeleteRefillsLikeStrictDeletes(t *testing.T) {
	// Dest-aggregate: flow 17's traffic lifts its /28 group, so the refill
	// after flow 16 promotes flow 24 of that group. Once flow 17 has gone
	// too, flow 0's group scores higher.
	destAgg := TestSwitch(1, PolicyDestAggregate())
	checkTwinDelete(t, "dest-aggregate", destAgg, 1, false, []twinOp{
		{flow: 16, prio: 10}, {flow: 24, prio: 10}, {flow: 0, prio: 10}, {flow: 17, prio: 10},
		{flow: 17, packets: 10}, {flow: 0, packets: 5},
	}, flowtable.ProbeBlockMatch(16, 1), 24)
	// Adaptive TCAM, 6 units: a wide rule takes all six, a narrow one one.
	// FIFO refills oldest first: narrow flow 8 after flow 16 goes, then
	// wide flow 17 does not fit in the five units left, which stops the
	// refill before narrow flow 9.
	adaptive := TestSwitch(1, PolicyFIFO)
	adaptive.TCAM = flowtable.TCAMConfig{Mode: flowtable.ModeAdaptive, CapacityNarrow: 6, CapacityWide: 1}
	checkTwinDelete(t, "adaptive", adaptive, 1, false, []twinOp{
		{flow: 16, prio: 10}, {flow: 8, prio: 10, l3: true}, {flow: 17, prio: 10}, {flow: 9, prio: 10, l3: true},
	}, flowtable.ProbeBlockMatch(16, 1), 9)
}

// twinOp is one step of a twin history: the add of flow's exact probe rule
// (its L3 rule when l3) at prio, or, when packets > 0, a burst of flow's
// probe.
type twinOp struct {
	flow    uint32
	prio    uint16
	l3      bool
	packets int
}

// checkTwinDelete replays history on twin switches built from p and seed,
// then deletes what m covers: non-strictly on one twin, one strict delete
// per victim in table order on the other. The twins must then agree on the
// clock, every rule's tier and counters, the tier and kernel counts, the
// next eviction victim and the RTT of a probe of flow probe, and the
// deleting twin's indexes must hold their invariants.
func checkTwinDelete(t *testing.T, where string, p Profile, seed int64, defaultRoute bool, history []twinOp, m flowtable.Match, probe uint32) {
	t.Helper()
	opts := []Option{WithSeed(seed)}
	if defaultRoute {
		opts = append(opts, WithDefaultRoute())
	}
	del, strict := New(p, opts...), New(p, opts...)
	for _, op := range history {
		for _, s := range []*Switch{del, strict} {
			if op.packets > 0 {
				sendProbeN(t, s, op.flow, op.packets)
				continue
			}
			fm := openflow.FlowMod{
				Command: openflow.FlowAdd, Match: flowtable.ExactProbeMatch(op.flow),
				Priority: op.prio, Actions: flowtable.Output(1),
			}
			if op.l3 {
				fm.Match = flowtable.L3ProbeMatch(op.flow)
			}
			if err := s.FlowMod(&fm); err != nil {
				t.Fatalf("%s: %v", where, err)
			}
		}
	}
	var victims []openflow.FlowStats
	for _, fs := range flowStatsOf(strict) {
		if m.Covers(&fs.Match) {
			victims = append(victims, fs)
		}
	}
	if err := del.FlowMod(&openflow.FlowMod{Command: openflow.FlowDelete, Match: m}); err != nil {
		t.Fatal(err)
	}
	for _, v := range victims {
		if err := strict.FlowMod(&openflow.FlowMod{Command: openflow.FlowDeleteStrict, Match: v.Match, Priority: v.Priority}); err != nil {
			t.Fatal(err)
		}
	}
	if len(victims) == 0 {
		// Deleting nothing costs one delete; so does one strict delete
		// of nothing.
		_ = strict.FlowMod(&openflow.FlowMod{Command: openflow.FlowDeleteStrict, Match: m})
	}
	checkIndexes(t, del)
	if !del.Now().Equal(strict.Now()) {
		t.Fatalf("%s: clock ahead by %v", where, del.Now().Sub(strict.Now()))
	}
	if a, b := flowStatsOf(del), flowStatsOf(strict); !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: rules differ:\n delete  %+v\n strict  %+v", where, a, b)
	}
	at, ak, as := del.RuleCount()
	bt, bk, bs := strict.RuleCount()
	if at != bt || ak != bk || as != bs {
		t.Fatalf("%s: tier counts (%d, %d, %d) vs (%d, %d, %d)", where, at, ak, as, bt, bk, bs)
	}
	if a, b := nextVictim(del), nextVictim(strict); a != b {
		t.Fatalf("%s: next victim %q vs %q", where, a, b)
	}
	if a, b := sendProbe(t, del, probe), sendProbe(t, strict, probe); a.Path != b.Path || a.RTT != b.RTT {
		t.Fatalf("%s: probe of flow %d %v/%v vs %v/%v", where, probe, a.Path, a.RTT, b.Path, b.RTT)
	}
}

// TestWildcardDeleteAllocatesNothing: the one-pass delete collects no victim
// list, so clearing 4,096 probe rules in one flow-mod allocates nothing —
// on Switch #1, whose clear refills the TCAM from a FIFO cache and rebuilds
// its heaps, and on OVS with a microflow cached per rule. Each run refills
// the table first, which a warm switch does from its free lists.
func TestWildcardDeleteAllocatesNothing(t *testing.T) {
	const n = 4096
	for _, p := range []Profile{Switch1(), OVS()} {
		s := New(p, WithDefaultRoute())
		fm := openflow.FlowMod{Command: openflow.FlowAdd, Priority: 100, Actions: flowtable.Output(1)}
		clear := openflow.FlowMod{Command: openflow.FlowDelete, Match: flowtable.ProbeBlockMatch(0, 12)}
		var f packet.Frame
		fillAndClear := func() {
			for id := uint32(0); id < n; id++ {
				fm.Match = flowtable.ExactProbeMatch(id)
				if err := s.FlowMod(&fm); err != nil {
					t.Fatal(err)
				}
				if id%64 == 0 {
					packet.RetargetProbeFrame(&f, id)
					if _, err := s.SendFrameN(&f, 1, packet.ProbeFrameLen, 1); err != nil {
						t.Fatal(err)
					}
				}
			}
			if tcam, kernel, soft := s.RuleCount(); tcam+soft != n+1 || (p.Kind == ManageMicroflow) != (kernel == n/64) {
				t.Fatalf("%s: (tcam, kernel, software) = (%d, %d, %d) before the clear", p.Name, tcam, kernel, soft)
			}
			if err := s.FlowMod(&clear); err != nil {
				t.Fatal(err)
			}
			if tcam, kernel, soft := s.RuleCount(); tcam+kernel+soft != 1 {
				t.Fatalf("%s: (tcam, kernel, software) = (%d, %d, %d) after the clear, want the default route alone", p.Name, tcam, kernel, soft)
			}
		}
		packet.BuildProbeFrame(&f, packet.ProbeSpec{})
		fillAndClear() // the first fill grows what every later one reuses
		if allocs := testing.AllocsPerRun(3, fillAndClear); allocs != 0 {
			t.Errorf("%s: filling %d rules and clearing them in one wildcard delete allocated %v times", p.Name, n, allocs)
		}
	}
}

// flowStatsOf reads every rule of s — match, priority, tier (table 0 is the
// TCAM) and counters — in table order.
func flowStatsOf(s *Switch) []openflow.FlowStats {
	var flows []openflow.FlowStats
	for _, m := range s.Handle(&openflow.StatsRequest{StatsType: openflow.StatsTypeFlow}) {
		flows = append(flows, m.(*openflow.StatsReply).Flows...)
	}
	return flows
}

// nextVictim names the rule the eviction index would demote next, "" when
// there is none.
func nextVictim(s *Switch) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.evictIdx == nil {
		return ""
	}
	e, _ := s.evictIdx.peek(s)
	if e == nil {
		return ""
	}
	return e.rule.Match.String() + "/" + itoa(uint64(e.rule.Priority))
}

// sendProbeN sends n copies of flow id's probe into s as one burst.
func sendProbeN(t *testing.T, s *Switch, id uint32, n int) {
	t.Helper()
	raw, err := packet.BuildProbe(packet.ProbeSpec{FlowID: id})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SendPacketN(raw, 1, n); err != nil {
		t.Fatal(err)
	}
}

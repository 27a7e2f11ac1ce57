package conformance

import (
	"net"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"tango/internal/core/probe"
	"tango/internal/faults"
	"tango/internal/flowtable"
	"tango/internal/ofconn"
	"tango/internal/openflow"
	"tango/internal/packet"
	"tango/internal/switchsim"
)

// clearPriority is the priority the cleared range's rules sit at.
const clearPriority = 100

// TestClearProbeRulesMatchesStrictDeletes holds ClearProbeRules — one
// wildcard delete per aligned block of flows — to what ClearBatch's strict
// delete per flow does, on twin switches built from one profile and seed:
// aligned, unaligned and single-flow ranges, one crossing a 65,536-flow
// boundary, and an empty one; LEX, dest-aggregate and FDRC caches, a
// mixed-width TCAM and OVS with kernel microflows; driven directly, through
// the conformance device and over TCP. Exactly the range's rules go —
// neighbouring flows, rules at other priorities, rules of another shape on
// the range's own flows and the default route stay — and afterwards the
// twins agree on the clock, every rule's tier and counters, the next RTT
// draw and the next eviction.
func TestClearProbeRulesMatchesStrictDeletes(t *testing.T) {
	mixed := switchsim.TestSwitch(24, switchsim.PolicyLRU)
	mixed.TCAM = flowtable.TCAMConfig{Mode: flowtable.ModeAdaptive, CapacityNarrow: 48, CapacityWide: 24}
	profiles := []struct {
		name string
		p    switchsim.Profile
	}{
		{"fifo", switchsim.TestSwitch(24, switchsim.PolicyFIFO)},
		{"lru", switchsim.TestSwitch(24, switchsim.PolicyLRU)},
		{"lfu", switchsim.TestSwitch(24, switchsim.PolicyLFU)},
		{"priority", switchsim.TestSwitch(24, switchsim.PolicyPriority)},
		{"destagg", switchsim.TestSwitch(24, switchsim.PolicyDestAggregate())},
		{"fdrc", switchsim.TestSwitch(24, switchsim.PolicyFDRC(64))},
		{"mixed-width", mixed},
		{"ovs", switchsim.OVS()},
	}
	ranges := []struct {
		name    string
		base, n uint32
	}{
		{"aligned", 256, 128},
		{"unaligned", 1001, 150},
		{"across 65536", 1<<16 - 70, 140},
		{"one flow", 77, 1},
		{"empty", 500, 0},
	}
	devices := []struct {
		name string
		dev  func(t *testing.T, sw *switchsim.Switch) probe.Device
	}{
		{"sim", func(_ *testing.T, sw *switchsim.Switch) probe.Device { return probe.SimDevice{S: sw} }},
		{"conformance", func(_ *testing.T, sw *switchsim.Switch) probe.Device {
			return newDevice(sw, faults.NewInjector(faults.Config{Seed: 1, Drop: 1e-300}), nil)
		}},
		{"tcp", dialSwitch},
	}
	for _, d := range devices {
		for i, p := range profiles {
			for _, r := range ranges {
				t.Run(d.name+"/"+p.name+"/"+r.name, func(t *testing.T) {
					seed := int64(i + 1)
					wild := switchsim.New(p.p, switchsim.WithSeed(seed), switchsim.WithDefaultRoute())
					strict := switchsim.New(p.p, switchsim.WithSeed(seed), switchsim.WithDefaultRoute())
					ew, es := probe.NewEngine(d.dev(t, wild)), probe.NewEngine(d.dev(t, strict))
					fillAroundRange(t, ew, r.base, r.n)
					fillAroundRange(t, es, r.base, r.n)
					before := wild.Stats().FlowMods
					ew.ClearProbeRules(r.base, r.n, clearPriority)
					es.ClearBatch(r.base, r.n, clearPriority)
					if sent := wild.Stats().FlowMods - before; sent > 2*16+1 {
						t.Errorf("wildcard clear of %d flows sent %d flow-mods", r.n, sent)
					}
					for _, fs := range flowStats(wild) {
						if id, ok := exactProbeID(&fs.Match); ok && fs.Priority == clearPriority && id-r.base < r.n {
							t.Fatalf("flow %d's rule survived the clear", id)
						}
					}
					compareTwins(t, "after the clear", wild, strict)
					if want := 4 + 2*24 + 8 + 1; len(flowStats(wild)) != want {
						t.Errorf("%d rules survived, want %d", len(flowStats(wild)), want)
					}
					for _, id := range []uint32{r.base, r.base - 1, r.base + r.n, farFlow} {
						a, b := probeSwitch(t, wild, id), probeSwitch(t, strict, id)
						if a != b {
							t.Fatalf("probe of flow %d: wildcard twin %+v, strict twin %+v", id, a, b)
						}
					}
					for _, sw := range []*switchsim.Switch{wild, strict} {
						if err := sw.FlowMod(&openflow.FlowMod{
							Command: openflow.FlowAdd, Match: flowtable.ExactProbeMatch(farFlow + 999),
							Priority: clearPriority + 7, Actions: flowtable.Output(2),
						}); err != nil {
							t.Fatal(err)
						}
					}
					compareTwins(t, "after the next add", wild, strict)
				})
			}
		}
	}
}

// TestClearProbeRulesTakesEveryPriority pins where ClearProbeRules and
// ClearBatch part: on the cleared flows, a probe-shaped rule at another
// priority or from another source address goes with the wildcard clear and
// stays after the strict one; a rule of another shape stays after both.
// This is why a caller's clear range may share no flow with another
// writer's rules.
func TestClearProbeRulesTakesEveryPriority(t *testing.T) {
	const base, n = 1001, 150
	otherSrc := flowtable.ExactProbeMatch(base + 7)
	otherSrc.NwSrc = netip.PrefixFrom(netip.AddrFrom4([4]byte{192, 0, 2, 1}), 32)
	otherPrio, otherShape := flowtable.ExactProbeMatch(base+3), flowtable.L3ProbeMatch(base+9)
	for _, c := range []struct {
		name  string
		clear func(e *probe.Engine)
		want  []string
	}{
		{"wildcard", func(e *probe.Engine) { e.ClearProbeRules(base, n, clearPriority) },
			[]string{otherShape.String()}},
		{"strict", func(e *probe.Engine) { e.ClearBatch(base, n, clearPriority) },
			[]string{otherPrio.String(), otherSrc.String(), otherShape.String()}},
	} {
		t.Run(c.name, func(t *testing.T) {
			sw := switchsim.New(switchsim.TestSwitch(24, switchsim.PolicyLRU), switchsim.WithSeed(1))
			e := probe.NewEngine(probe.SimDevice{S: sw})
			for id := uint32(base); id < base+n; id++ {
				if err := e.Install(id, clearPriority); err != nil {
					t.Fatal(err)
				}
			}
			for _, r := range []struct {
				m flowtable.Match
				p uint16
			}{{otherPrio, clearPriority + 5}, {otherSrc, clearPriority}, {otherShape, clearPriority - 50}} {
				if err := sw.FlowMod(&openflow.FlowMod{Command: openflow.FlowAdd, Match: r.m, Priority: r.p, Actions: flowtable.Output(2)}); err != nil {
					t.Fatal(err)
				}
			}
			c.clear(e)
			var got []string
			for _, fs := range flowStats(sw) {
				got = append(got, fs.Match.String())
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Fatalf("survivors %q, want %q", got, c.want)
			}
		})
	}
}

// TestReorderHoldsABlockClear: a reorder fault that lands on a clear's
// block delete holds every rule of the block past the next operation, where
// a strict clear's held delete held one. The next round's first install
// then meets the previous round's full cache. Pinned here is what that
// leaves behind against a fault-free twin: once the held clear has run, the
// install is the one rule left, in the TCAM, so the next round's rules sit
// in the tiers the twin's do, and only the clock is ahead, by what the
// install paid to place itself in a full cache.
func TestReorderHoldsABlockClear(t *testing.T) {
	// A seed whose first two decisions are a reorder, then no fault.
	cfg := faults.Config{Reorder: 0.5}
	for ; ; cfg.Seed++ {
		inj := faults.NewInjector(cfg)
		if a, b := inj.Decide(), inj.Decide(); a.Fire && a.Kind == faults.KindReorder && !b.Fire {
			break
		}
	}
	p := switchsim.TestSwitch(24, switchsim.PolicyLRU)
	faulty, clean := switchsim.New(p, switchsim.WithSeed(1)), switchsim.New(p, switchsim.WithSeed(1))
	bf, bc := probe.NewEngine(probe.SimDevice{S: faulty}), probe.NewEngine(probe.SimDevice{S: clean})
	ef := probe.NewEngine(newDevice(faulty, faults.NewInjector(cfg), nil))
	install := func(e *probe.Engine, lo, hi uint32) {
		for id := lo; id < hi; id++ {
			if err := e.Install(id, clearPriority); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The previous round: 64 rules, 24 in the TCAM, cleared by one block
	// delete. The reorder holds it past the next round's first install.
	install(bf, 0, 64)
	install(bc, 0, 64)
	ef.ClearProbeRules(0, 64, clearPriority)
	bc.ClearProbeRules(0, 64, clearPriority)
	if tcam, _, soft := faulty.RuleCount(); tcam+soft != 64 {
		t.Fatalf("the held clear ran early: %d rules left", tcam+soft)
	}
	install(ef, 64, 65)
	install(bc, 64, 65)
	if tcam, _, soft := faulty.RuleCount(); tcam != 1 || soft != 0 {
		t.Fatalf("after the held clear: %d TCAM, %d software rules, want the install alone in the TCAM", tcam, soft)
	}
	install(bf, 65, 128)
	install(bc, 65, 128)
	fa, fb := flowStats(faulty), flowStats(clean)
	if len(fa) != len(fb) {
		t.Fatalf("%d rules, fault-free twin %d", len(fa), len(fb))
	}
	for i := range fa {
		if !fa[i].Match.Same(&fb[i].Match) || fa[i].TableID != fb[i].TableID {
			t.Fatalf("rule %d: %v in table %d, fault-free twin %v in table %d", i, fa[i].Match, fa[i].TableID, fb[i].Match, fb[i].TableID)
		}
	}
	if !faulty.Now().After(clean.Now()) {
		t.Fatalf("the overtaking install cost nothing: clock %v behind the fault-free twin's", clean.Now().Sub(faulty.Now()))
	}
}

// farFlow is where the rules at other priorities start, far from every
// cleared range.
const farFlow = 200_000

// fillAroundRange installs [base, base+n) at clearPriority between two
// neighbouring flows on each side, 48 far rules at other priorities, and L3
// rules of another shape on eight of the range's own flows (or near it),
// interleaved, then sends traffic and probes so every cache policy has
// counters and use times to order by and OVS caches microflows.
func fillAroundRange(t *testing.T, e *probe.Engine, base, n uint32) {
	t.Helper()
	install := func(id uint32, p uint16) {
		if err := e.Install(id, p); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint32(0); i < 24; i++ {
		install(farFlow+i, clearPriority+1+uint16(i%3))
	}
	install(base-2, clearPriority)
	install(base-1, clearPriority)
	for id := base; id < base+n; id++ {
		install(id, clearPriority)
	}
	install(base+n, clearPriority)
	install(base+n+1, clearPriority)
	for i := uint32(24); i < 48; i++ {
		install(farFlow+i, clearPriority-1-uint16(i%3))
	}
	dev := e.Device()
	for i := uint32(0); i < 8; i++ {
		// Same addresses as flow base+i's probe rule, no dl_type, nw_proto or
		// tp_dst: a rule of another shape, which neither clear covers.
		if err := dev.FlowMod(&openflow.FlowMod{
			Command: openflow.FlowAdd, Match: flowtable.L3ProbeMatch(base + i),
			Priority: clearPriority - 50, Actions: flowtable.Output(2),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i, id := range []uint32{base - 2, base, base + n/2, base + n - 1, base + n + 1, farFlow + 3, farFlow + 30} {
		if err := e.SendTraffic(id, 1+3*i); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []uint32{farFlow + 40, base + n/3, base - 1, farFlow + 5} {
		if _, _, err := e.Probe(id); err != nil {
			t.Fatal(err)
		}
	}
}

// dialSwitch serves sw over loopback TCP and returns a controller for it.
func dialSwitch(t *testing.T, sw *switchsim.Switch) probe.Device {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go ofconn.NewServer(ln, sw, ofconn.ServeOptions{}).Serve()
	c, err := ofconn.DialOptions(ln.Addr().String(), ofconn.ControllerOptions{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// flowStats reads every rule of sw — match, priority, tier (table 0 is the
// TCAM) and counters — in table order.
func flowStats(sw *switchsim.Switch) []openflow.FlowStats {
	var flows []openflow.FlowStats
	for _, m := range sw.Handle(&openflow.StatsRequest{StatsType: openflow.StatsTypeFlow}) {
		flows = append(flows, m.(*openflow.StatsReply).Flows...)
	}
	return flows
}

// exactProbeID returns the flow whose exact probe rule m is.
func exactProbeID(m *flowtable.Match) (uint32, bool) {
	if !m.Has(flowtable.FieldNwDst) {
		return 0, false
	}
	a := m.NwDst.Addr().As4()
	id := uint32(a[1]-84)<<16 | uint32(a[2])<<8 | uint32(a[3])
	want := flowtable.ExactProbeMatch(id)
	return id, m.Same(&want)
}

// compareTwins fails unless a and b agree on the clock, their tier and
// kernel counts and every rule.
func compareTwins(t *testing.T, when string, a, b *switchsim.Switch) {
	t.Helper()
	if !a.Now().Equal(b.Now()) {
		t.Fatalf("%s: clock %v ahead of the strict twin's", when, a.Now().Sub(b.Now()))
	}
	at, ak, as := a.RuleCount()
	bt, bk, bs := b.RuleCount()
	if at != bt || ak != bk || as != bs {
		t.Fatalf("%s: (tcam, kernel, software) = (%d, %d, %d), strict twin (%d, %d, %d)", when, at, ak, as, bt, bk, bs)
	}
	if fa, fb := flowStats(a), flowStats(b); !reflect.DeepEqual(fa, fb) {
		t.Fatalf("%s: rules differ:\n wildcard %+v\n strict   %+v", when, fa, fb)
	}
}

// twinProbe is what one probe tells apart: the tier that served it, the RTT
// drawn and the rule that matched.
type twinProbe struct {
	path     switchsim.PathKind
	rtt      time.Duration
	match    string
	priority uint16
}

// probeSwitch sends flow id's probe straight into sw.
func probeSwitch(t *testing.T, sw *switchsim.Switch, id uint32) twinProbe {
	t.Helper()
	data, err := packet.BuildProbe(packet.ProbeSpec{FlowID: id})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sw.SendPacket(data, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := twinProbe{path: res.Path, rtt: res.RTT}
	if res.Rule != nil {
		p.match, p.priority = res.Rule.Match.String(), res.Rule.Priority
	}
	return p
}

package switchsim

import (
	"errors"
	"slices"
	"testing"
	"time"

	"tango/internal/flowtable"
	"tango/internal/openflow"
	"tango/internal/packet"
)

// addFlow installs the exact probe rule for flow id at the given priority.
func addFlow(t *testing.T, s *Switch, id uint32, prio uint16) {
	t.Helper()
	if err := addFlowErr(s, id, prio); err != nil {
		t.Fatalf("add flow %d: %v", id, err)
	}
}

func addFlowErr(s *Switch, id uint32, prio uint16) error {
	return s.FlowMod(&openflow.FlowMod{
		Command:  openflow.FlowAdd,
		Match:    flowtable.ExactProbeMatch(id),
		Priority: prio,
		Actions:  flowtable.Output(1),
	})
}

// sendProbe injects flow id's probe frame and returns the result.
func sendProbe(t *testing.T, s *Switch, id uint32) Result {
	t.Helper()
	raw, err := packet.BuildProbe(packet.ProbeSpec{FlowID: id})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.SendPacket(raw, 1)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestTCAMOnlyRejectsWhenFull(t *testing.T) {
	p := Switch2().WithTCAMCapacity(10)
	s := New(p)
	for id := uint32(0); id < 10; id++ {
		addFlow(t, s, id, 100)
	}
	err := addFlowErr(s, 99, 100)
	if !errors.Is(err, ErrTableFull) {
		t.Fatalf("err = %v, want ErrTableFull", err)
	}
	tcam, _, sw := s.RuleCount()
	if tcam != 10 || sw != 0 {
		t.Fatalf("counts = %d/%d", tcam, sw)
	}
}

func TestTCAMOnlyTwoTierDelay(t *testing.T) {
	// Figure 2(c): matching flows take the fast path, misses go to control.
	s := New(Switch2())
	for id := uint32(0); id < 50; id++ {
		addFlow(t, s, id, 100)
	}
	hit := sendProbe(t, s, 10)
	if hit.Path != PathFast {
		t.Fatalf("hit path = %v", hit.Path)
	}
	miss := sendProbe(t, s, 999)
	if miss.Path != PathControl {
		t.Fatalf("miss path = %v", miss.Path)
	}
	if hit.RTT >= miss.RTT {
		t.Fatalf("fast RTT %v not below control RTT %v", hit.RTT, miss.RTT)
	}
}

func TestPolicyCacheFIFOPlacement(t *testing.T) {
	// Figure 2(b): with a FIFO software table the first N insertions stay
	// in TCAM regardless of traffic.
	p := TestSwitch(5, PolicyFIFO)
	s := New(p)
	for id := uint32(0); id < 8; id++ {
		addFlow(t, s, id, 100)
	}
	tcam, _, sw := s.RuleCount()
	if tcam != 5 || sw != 3 {
		t.Fatalf("counts = %d tcam / %d software", tcam, sw)
	}
	// First five flows are fast path, later three slow path.
	for id := uint32(0); id < 5; id++ {
		if res := sendProbe(t, s, id); res.Path != PathFast {
			t.Fatalf("flow %d path = %v, want fast", id, res.Path)
		}
	}
	for id := uint32(5); id < 8; id++ {
		if res := sendProbe(t, s, id); res.Path != PathSlow {
			t.Fatalf("flow %d path = %v, want slow", id, res.Path)
		}
	}
	// FIFO is traffic independent: hammering a software flow must not
	// promote it.
	for i := 0; i < 20; i++ {
		sendProbe(t, s, 7)
	}
	if res := sendProbe(t, s, 7); res.Path != PathSlow {
		t.Fatal("traffic promoted a flow under FIFO")
	}
	// Unknown flows punt to the controller.
	if res := sendProbe(t, s, 100); res.Path != PathControl {
		t.Fatalf("miss path = %v", res.Path)
	}
}

func TestPolicyCacheFIFORefill(t *testing.T) {
	p := TestSwitch(3, PolicyFIFO)
	s := New(p)
	for id := uint32(0); id < 5; id++ {
		addFlow(t, s, id, 100)
	}
	// Deleting a TCAM resident pulls the oldest software entry (flow 3) in.
	m := flowtable.ExactProbeMatch(1)
	if err := s.FlowMod(&openflow.FlowMod{Command: openflow.FlowDeleteStrict, Match: m, Priority: 100}); err != nil {
		t.Fatal(err)
	}
	if !s.InTCAM(ptrMatch(3), 100) {
		t.Fatal("oldest software flow not promoted after TCAM delete")
	}
	if s.InTCAM(ptrMatch(4), 100) {
		t.Fatal("newer software flow promoted out of order")
	}
	tcam, _, sw := s.RuleCount()
	if tcam != 3 || sw != 1 {
		t.Fatalf("counts = %d/%d", tcam, sw)
	}
}

func ptrMatch(id uint32) *flowtable.Match {
	m := flowtable.ExactProbeMatch(id)
	return &m
}

func TestPolicyCacheLRUPromotion(t *testing.T) {
	p := TestSwitch(3, PolicyLRU)
	s := New(p)
	for id := uint32(0); id < 4; id++ {
		addFlow(t, s, id, 100)
	}
	// Under LRU the newest insertions win the cache: flows 1,2,3 resident.
	if s.InTCAM(ptrMatch(0), 100) {
		t.Fatal("LRU kept the oldest flow after insert-driven eviction")
	}
	// Touching flow 0 (software) must promote it, evicting the least
	// recently used resident (flow 1).
	res := sendProbe(t, s, 0)
	if res.Path != PathSlow {
		t.Fatalf("first touch path = %v, want slow", res.Path)
	}
	if !s.InTCAM(ptrMatch(0), 100) {
		t.Fatal("touch did not promote under LRU")
	}
	if s.InTCAM(ptrMatch(1), 100) {
		t.Fatal("LRU evicted the wrong victim")
	}
	if res := sendProbe(t, s, 0); res.Path != PathFast {
		t.Fatalf("second touch path = %v, want fast", res.Path)
	}
}

func TestPolicyCacheLFU(t *testing.T) {
	p := TestSwitch(2, PolicyLFU)
	s := New(p)
	for id := uint32(0); id < 3; id++ {
		addFlow(t, s, id, 100)
	}
	// Give flow 2 (software resident or not) heavy traffic and flow 0 none.
	for i := 0; i < 10; i++ {
		sendProbe(t, s, 2)
	}
	if !s.InTCAM(ptrMatch(2), 100) {
		t.Fatal("heavy-traffic flow not cached under LFU")
	}
}

func TestPolicyCachePriority(t *testing.T) {
	p := TestSwitch(2, PolicyPriority)
	s := New(p)
	addFlow(t, s, 0, 10)
	addFlow(t, s, 1, 20)
	addFlow(t, s, 2, 30) // evicts priority 10
	if s.InTCAM(ptrMatch(0), 10) {
		t.Fatal("low-priority flow kept over high-priority")
	}
	if !s.InTCAM(ptrMatch(1), 20) || !s.InTCAM(ptrMatch(2), 30) {
		t.Fatal("high-priority flows not cached")
	}
}

func TestMicroflowThreeTier(t *testing.T) {
	// Figure 2(a): 80 rules, 160 flows × 2 packets. First packet of a
	// matching flow is slow (user space), second fast (kernel). Unmatched
	// flows go to the controller both times.
	s := New(OVS())
	for id := uint32(0); id < 80; id++ {
		addFlow(t, s, id, 100)
	}
	for id := uint32(0); id < 160; id++ {
		first := sendProbe(t, s, id)
		second := sendProbe(t, s, id)
		if id < 80 {
			if first.Path != PathSlow {
				t.Fatalf("flow %d first packet path = %v, want slow", id, first.Path)
			}
			if second.Path != PathFast {
				t.Fatalf("flow %d second packet path = %v, want fast", id, second.Path)
			}
		} else {
			if first.Path != PathControl || second.Path != PathControl {
				t.Fatalf("flow %d paths = %v/%v, want control", id, first.Path, second.Path)
			}
		}
	}
	st := s.Stats()
	if st.PacketsSeen != 320 || st.FastHits != 80 || st.SlowHits != 80 || st.MidHits != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMicroflowInvalidationOnDelete(t *testing.T) {
	s := New(OVS())
	addFlow(t, s, 1, 100)
	sendProbe(t, s, 1) // slow, installs kernel entry
	if res := sendProbe(t, s, 1); res.Path != PathFast {
		t.Fatal("kernel entry not installed")
	}
	m := flowtable.ExactProbeMatch(1)
	if err := s.FlowMod(&openflow.FlowMod{Command: openflow.FlowDeleteStrict, Match: m, Priority: 100}); err != nil {
		t.Fatal(err)
	}
	if res := sendProbe(t, s, 1); res.Path != PathControl {
		t.Fatalf("stale kernel entry served a deleted rule: %v", res.Path)
	}
}

func TestMicroflowKernelLRUCapacity(t *testing.T) {
	p := OVS()
	p.KernelCapacity = 2
	s := New(p)
	for id := uint32(0); id < 3; id++ {
		addFlow(t, s, id, 100)
	}
	sendProbe(t, s, 0)
	sendProbe(t, s, 1)
	sendProbe(t, s, 2) // evicts kernel entry for flow 0
	_, kernel, _ := s.RuleCount()
	if kernel != 2 {
		t.Fatalf("kernel entries = %d, want 2", kernel)
	}
	if res := sendProbe(t, s, 0); res.Path != PathSlow {
		t.Fatalf("evicted flow path = %v, want slow", res.Path)
	}
}

// TestKernelTableStatsReportKernelCapacity: an OVS profile whose microflow
// cache is bounded reports that bound as the kernel table's size, and an
// unbounded one the software table's.
func TestKernelTableStatsReportKernelCapacity(t *testing.T) {
	for _, c := range []struct {
		kernelCap int
		want      uint32
	}{{2, 2}, {0, defaultSoftwareCapacity}} {
		p := OVS()
		p.KernelCapacity = c.kernelCap
		s := New(p)
		addFlow(t, s, 1, 100)
		sendProbe(t, s, 1)
		sr := s.Handle(&openflow.StatsRequest{StatsType: openflow.StatsTypeTable})[0].(*openflow.StatsReply)
		var kernel *openflow.TableStats
		for i := range sr.Tables {
			if sr.Tables[i].Name == "kernel" {
				kernel = &sr.Tables[i]
			}
		}
		if kernel == nil || kernel.MaxEntries != c.want || kernel.ActiveCount != 1 {
			t.Fatalf("KernelCapacity %d: kernel table stats %+v, want %d max entries and 1 active", c.kernelCap, kernel, c.want)
		}
	}
}

// TestNonStrictDeleteRemovesInTableOrder pins the order a non-strict delete
// removes its victims in, which is the order of their FLOW_REMOVED
// messages: table order, by descending priority and then by install order,
// both for a wildcard match and for an exact match whose key several rules
// share.
func TestNonStrictDeleteRemovesInTableOrder(t *testing.T) {
	s := New(OVS())
	add := func(m flowtable.Match, prio uint16, cookie uint64) {
		t.Helper()
		if err := s.FlowMod(&openflow.FlowMod{
			Command: openflow.FlowAdd, Match: m, Priority: prio, Cookie: cookie,
			Flags: openflow.FlagSendFlowRem, Actions: flowtable.Output(1),
		}); err != nil {
			t.Fatal(err)
		}
	}
	removed := func(fm *openflow.FlowMod) []uint64 {
		t.Helper()
		if err := s.FlowMod(fm); err != nil {
			t.Fatal(err)
		}
		var cookies []uint64
		for _, fr := range s.TakeFlowRemoved() {
			cookies = append(cookies, fr.Cookie)
		}
		return cookies
	}

	add(flowtable.ExactProbeMatch(7), 5, 100)
	add(flowtable.ExactProbeMatch(7), 50, 101)
	add(flowtable.L3ProbeMatch(7), 25, 102)
	got := removed(&openflow.FlowMod{Command: openflow.FlowDelete, Match: flowtable.L3ProbeMatch(7)})
	if want := []uint64{101, 102, 100}; !slices.Equal(got, want) {
		t.Fatalf("exact-key delete removed cookies %v, want %v", got, want)
	}

	for i, prio := range []uint16{10, 30, 20, 30, 10, 20} {
		add(flowtable.ExactProbeMatch(uint32(i)), prio, uint64(i))
	}
	add(flowtable.L2ProbeMatch(9), 20, 6)
	got = removed(&openflow.FlowMod{Command: openflow.FlowDelete})
	if want := []uint64{1, 3, 2, 5, 6, 0, 4}; !slices.Equal(got, want) {
		t.Fatalf("wildcard delete removed cookies %v, want %v", got, want)
	}
}

// TestSharedKeyTakesTheReferenceWalk: when several rules share a frame's
// exact key, the exact classifier defers to the tier walk, which takes the
// first rule that matches the whole frame, and a TCAM match before a
// software one whatever their priorities.
func TestSharedKeyTakesTheReferenceWalk(t *testing.T) {
	add := func(s *Switch, m flowtable.Match, prio uint16) {
		t.Helper()
		if err := s.FlowMod(&openflow.FlowMod{Command: openflow.FlowAdd, Match: m, Priority: prio, Actions: flowtable.Output(1)}); err != nil {
			t.Fatal(err)
		}
	}
	// The key's first rule pins an in-port the probe does not arrive on.
	s := New(Switch2())
	onPort2 := flowtable.L3ProbeMatch(1)
	onPort2.Fields |= flowtable.FieldInPort
	onPort2.InPort = 2
	add(s, onPort2, 50)
	add(s, flowtable.L3ProbeMatch(1), 10)
	if res := sendProbe(t, s, 1); res.Path != PathFast || res.Rule == nil || res.Rule.Priority != 10 {
		t.Fatalf("probe on port 1 took %v via %+v, want the priority-10 rule's fast path", res.Path, res.Rule)
	}
	// The key's first rule is in software, a lower-priority one in the TCAM.
	s = New(TestSwitch(1, PolicyFIFO))
	add(s, flowtable.L3ProbeMatch(1), 10)
	add(s, flowtable.ExactProbeMatch(1), 50)
	if res := sendProbe(t, s, 1); res.Path != PathFast || res.Rule == nil || res.Rule.Priority != 10 {
		t.Fatalf("probe took %v via %+v, want the TCAM rule's fast path", res.Path, res.Rule)
	}
}

func TestModifyCheaperThanAddOnHardware(t *testing.T) {
	// Figure 3(b): modifying n entries is far cheaper than adding n
	// when priorities descend.
	p := Switch1()
	const n = 1500
	addSwitch := New(p, WithSeed(1))
	start := addSwitch.Now()
	for id := uint32(0); id < n; id++ {
		if err := addFlowErr(addSwitch, id, uint16(20000-id)); err != nil { // descending
			t.Fatal(err)
		}
	}
	addCost := addSwitch.Now().Sub(start)

	modSwitch := New(p, WithSeed(2))
	for id := uint32(0); id < n; id++ {
		if err := addFlowErr(modSwitch, id, 100); err != nil {
			t.Fatal(err)
		}
	}
	start = modSwitch.Now()
	for id := uint32(0); id < n; id++ {
		err := modSwitch.FlowMod(&openflow.FlowMod{
			Command:  openflow.FlowModifyStrict,
			Match:    flowtable.ExactProbeMatch(id),
			Priority: 100,
			Actions:  flowtable.Output(2),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	modCost := modSwitch.Now().Sub(start)
	if modCost >= addCost {
		t.Fatalf("mod (%v) not cheaper than descending add (%v)", modCost, addCost)
	}
}

func TestPriorityOrderCostSpread(t *testing.T) {
	// Figure 3(c): same > ascending > random > descending in speed.
	const n = 1000
	install := func(prios func(i int) uint16) time.Duration {
		s := New(Switch1(), WithSeed(7))
		start := s.Now()
		for i := 0; i < n; i++ {
			if err := addFlowErr(s, uint32(i), prios(i)); err != nil {
				t.Fatal(err)
			}
		}
		return s.Now().Sub(start)
	}
	same := install(func(i int) uint16 { return 1000 })
	asc := install(func(i int) uint16 { return uint16(1000 + i) })
	desc := install(func(i int) uint16 { return uint16(20000 - i) })
	rnd := install(func(i int) uint16 { return uint16(1000 + (i*7919)%n) })

	if !(same < asc && asc < rnd && rnd < desc) {
		t.Fatalf("cost order violated: same=%v asc=%v rnd=%v desc=%v", same, asc, rnd, desc)
	}
	if desc < asc*5 {
		t.Fatalf("descending (%v) should dwarf ascending (%v)", desc, asc)
	}
}

func TestOVSPriorityInsensitive(t *testing.T) {
	const n = 400
	install := func(prios func(i int) uint16) time.Duration {
		s := New(OVS(), WithSeed(7))
		start := s.Now()
		for i := 0; i < n; i++ {
			if err := addFlowErr(s, uint32(i), prios(i)); err != nil {
				t.Fatal(err)
			}
		}
		return s.Now().Sub(start)
	}
	asc := install(func(i int) uint16 { return uint16(1000 + i) })
	desc := install(func(i int) uint16 { return uint16(20000 - i) })
	ratio := float64(desc) / float64(asc)
	if ratio > 1.2 || ratio < 0.8 {
		t.Fatalf("OVS should be priority-insensitive; asc=%v desc=%v", asc, desc)
	}
}

func TestDefaultRouteOccupiesSlot(t *testing.T) {
	p := TestSwitch(4, PolicyFIFO)
	s := New(p, WithDefaultRoute())
	for id := uint32(0); id < 4; id++ {
		addFlow(t, s, id, 100)
	}
	tcam, _, sw := s.RuleCount()
	if tcam != 4 || sw != 1 {
		t.Fatalf("counts = %d/%d, want 4 TCAM (incl. default) / 1 software", tcam, sw)
	}
	// A total miss hits the default route and punts.
	if res := sendProbe(t, s, 12345); res.Path != PathControl {
		t.Fatalf("miss path = %v", res.Path)
	}
}

func TestDeleteNonStrictCovers(t *testing.T) {
	s := New(OVS())
	for id := uint32(0); id < 5; id++ {
		addFlow(t, s, id, 100)
	}
	// Wildcard-all non-strict delete clears everything.
	if err := s.FlowMod(&openflow.FlowMod{Command: openflow.FlowDelete}); err != nil {
		t.Fatal(err)
	}
	_, _, sw := s.RuleCount()
	if sw != 0 {
		t.Fatalf("software rules = %d, want 0", sw)
	}
}

func TestModifyMissingBehavesAsAdd(t *testing.T) {
	s := New(OVS())
	err := s.FlowMod(&openflow.FlowMod{
		Command:  openflow.FlowModify,
		Match:    flowtable.ExactProbeMatch(7),
		Priority: 9,
		Actions:  flowtable.Output(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	_, _, sw := s.RuleCount()
	if sw != 1 {
		t.Fatalf("rules = %d, want 1", sw)
	}
}

func TestAdaptiveWidthEviction(t *testing.T) {
	// A wide contender must be able to displace two narrow residents.
	p := TestSwitch(0, PolicyLRU)
	p.TCAM = flowtable.TCAMConfig{Mode: flowtable.ModeAdaptive, CapacityNarrow: 4, CapacityWide: 2}
	s := New(p)
	// Four narrow L3-only rules fill the TCAM.
	for id := uint32(0); id < 4; id++ {
		err := s.FlowMod(&openflow.FlowMod{
			Command: openflow.FlowAdd, Match: flowtable.L3ProbeMatch(id), Priority: 10,
			Actions: flowtable.Output(1),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	tcam, _, _ := s.RuleCount()
	if tcam != 4 {
		t.Fatalf("tcam = %d, want 4", tcam)
	}
	// A new wide rule is most-recent under LRU: it evicts two narrow rules.
	addFlow(t, s, 100, 10)
	tcam, _, sw := s.RuleCount()
	if tcam != 3 || sw != 2 {
		t.Fatalf("after wide insert: tcam=%d sw=%d, want 3/2", tcam, sw)
	}
	if !s.InTCAM(ptrMatch(100), 10) {
		t.Fatal("wide rule not cached")
	}
}

func TestSingleWideModeKeepsWideRulesInSoftware(t *testing.T) {
	p := TestSwitch(0, PolicyFIFO)
	p.TCAM = flowtable.TCAMConfig{Mode: flowtable.ModeSingleWide, CapacityNarrow: 4, CapacityWide: 4}
	s := New(p)
	addFlow(t, s, 1, 10) // L2+L3: ineligible for single-wide TCAM
	if s.InTCAM(ptrMatch(1), 10) {
		t.Fatal("wide rule installed in single-wide TCAM")
	}
	_, _, sw := s.RuleCount()
	if sw != 1 {
		t.Fatalf("software rules = %d, want 1", sw)
	}
	if res := sendProbe(t, s, 1); res.Path != PathSlow {
		t.Fatalf("path = %v, want slow", res.Path)
	}
}

func TestHandleOpenFlowConversation(t *testing.T) {
	s := New(Switch2().WithTCAMCapacity(2))
	// Hello
	replies := s.Handle(&openflow.Hello{})
	if len(replies) != 1 || replies[0].Type() != openflow.TypeHello {
		t.Fatalf("hello replies: %v", replies)
	}
	// Echo
	replies = s.Handle(&openflow.EchoRequest{Data: []byte("x")})
	if len(replies) != 1 || replies[0].Type() != openflow.TypeEchoReply {
		t.Fatalf("echo replies: %v", replies)
	}
	// Features
	replies = s.Handle(&openflow.FeaturesRequest{})
	fr, ok := replies[0].(*openflow.FeaturesReply)
	if !ok || fr.DatapathID != Switch2().DatapathID || fr.NTables != 1 {
		t.Fatalf("features: %+v", replies[0])
	}
	// FlowMod ok -> no reply
	fm := &openflow.FlowMod{Command: openflow.FlowAdd, Match: flowtable.ExactProbeMatch(1), Priority: 5, Actions: flowtable.Output(1)}
	if replies = s.Handle(fm); replies != nil {
		t.Fatalf("flowmod replies: %v", replies)
	}
	// Fill and overflow -> Error reply
	s.Handle(&openflow.FlowMod{Command: openflow.FlowAdd, Match: flowtable.ExactProbeMatch(2), Priority: 5, Actions: flowtable.Output(1)})
	replies = s.Handle(&openflow.FlowMod{Command: openflow.FlowAdd, Match: flowtable.ExactProbeMatch(3), Priority: 5, Actions: flowtable.Output(1)})
	if len(replies) != 1 {
		t.Fatalf("overflow replies: %v", replies)
	}
	oe, ok := replies[0].(*openflow.Error)
	if !ok || !oe.IsTableFull() {
		t.Fatalf("overflow reply: %+v", replies[0])
	}
	// Barrier
	replies = s.Handle(&openflow.BarrierRequest{Header: openflow.Header{Xid: 77}})
	if len(replies) != 1 || replies[0].XID() != 77 || replies[0].Type() != openflow.TypeBarrierReply {
		t.Fatalf("barrier replies: %v", replies)
	}
	// PacketOut for an installed flow reflects a PacketIn with ACTION.
	raw, _ := packet.BuildProbe(packet.ProbeSpec{FlowID: 1})
	replies = s.Handle(&openflow.PacketOut{Data: raw, InPort: 1})
	pin, ok := replies[0].(*openflow.PacketIn)
	if !ok || pin.Reason != openflow.ReasonAction {
		t.Fatalf("packet-out reply: %+v", replies[0])
	}
	// PacketOut for a miss reflects NO_MATCH.
	raw, _ = packet.BuildProbe(packet.ProbeSpec{FlowID: 50})
	replies = s.Handle(&openflow.PacketOut{Data: raw, InPort: 1})
	pin, ok = replies[0].(*openflow.PacketIn)
	if !ok || pin.Reason != openflow.ReasonNoMatch {
		t.Fatalf("miss packet-out reply: %+v", replies[0])
	}
	// Table stats
	replies = s.Handle(&openflow.StatsRequest{StatsType: openflow.StatsTypeTable})
	sr, ok := replies[0].(*openflow.StatsReply)
	if !ok || len(sr.Tables) != 1 || sr.Tables[0].ActiveCount != 2 {
		t.Fatalf("table stats: %+v", replies[0])
	}
	// Flow stats
	replies = s.Handle(&openflow.StatsRequest{StatsType: openflow.StatsTypeFlow})
	sr, ok = replies[0].(*openflow.StatsReply)
	if !ok || len(sr.Flows) != 2 {
		t.Fatalf("flow stats: %+v", replies[0])
	}
}

func TestMidPathTiering(t *testing.T) {
	// Figure 5: entries beyond MidPathSlots in the TCAM answer at MidPath.
	p := FigureFiveSwitch()
	p.TCAM = flowtable.TCAMConfig{Mode: flowtable.ModeDoubleWide, CapacityNarrow: 20, CapacityWide: 20}
	p.MidPathSlots = 10
	p.SoftwareCapacity = 100
	s := New(p)
	for id := uint32(0); id < 25; id++ {
		addFlow(t, s, id, 100)
	}
	if res := sendProbe(t, s, 3); res.Path != PathFast {
		t.Fatalf("slot 3 path = %v", res.Path)
	}
	if res := sendProbe(t, s, 15); res.Path != PathMid {
		t.Fatalf("slot 15 path = %v", res.Path)
	}
	if res := sendProbe(t, s, 22); res.Path != PathSlow {
		t.Fatalf("overflow flow path = %v", res.Path)
	}
}

// TestTCAMMatchBeatsSoftwareMatch pins the hierarchy's precedence: a frame
// matching a TCAM rule is served by it even when a higher-priority software
// rule matches too, because the TCAM answers before software is consulted.
func TestTCAMMatchBeatsSoftwareMatch(t *testing.T) {
	s := New(TestSwitch(1, PolicyFIFO))
	l2 := flowtable.L2ProbeMatch(1)
	if err := s.FlowMod(&openflow.FlowMod{Command: openflow.FlowAdd, Match: l2, Priority: 10, Actions: flowtable.Output(2)}); err != nil {
		t.Fatal(err)
	}
	addFlow(t, s, 1, 50) // FIFO keeps the L2 rule in the TCAM
	if !s.InTCAM(&l2, 10) || s.InTCAM(ptrMatch(1), 50) {
		t.Fatal("FIFO did not keep the first rule in the TCAM")
	}
	if res := sendProbe(t, s, 1); res.Path != PathFast || res.Rule == nil || res.Rule.Priority != 10 {
		t.Fatalf("frame served on %v by %+v, want the TCAM's priority-10 rule", res.Path, res.Rule)
	}
}

// TestMidPathRanksByTCAMEntry checks that a TCAM slot's rank follows when
// its rule entered the TCAM, not when it was installed: on a 4-entry LRU
// TCAM whose first two slots are fast, flow 0 — installed first, demoted,
// then promoted back by its own packet — takes the last slot.
func TestMidPathRanksByTCAMEntry(t *testing.T) {
	p := FigureFiveSwitch().WithPolicy(PolicyLRU).WithTCAMCapacity(4)
	p.MidPathSlots = 2
	s := New(p)
	for id := uint32(0); id < 5; id++ {
		addFlow(t, s, id, 100) // flow 4 demotes flow 0
	}
	if res := sendProbe(t, s, 0); res.Path != PathSlow {
		t.Fatalf("demoted flow 0 served on %v, want slow", res.Path)
	}
	// The promotion demoted flow 1; the TCAM now holds 2, 3, 4, 0 in entry
	// order.
	for id, want := range []PathKind{0: PathMid, 2: PathFast, 3: PathFast, 4: PathMid} {
		if id == 1 {
			continue
		}
		if res := sendProbe(t, s, uint32(id)); res.Path != want {
			t.Fatalf("flow %d served on %v, want %v", id, res.Path, want)
		}
	}
}

func TestStatsAccumulate(t *testing.T) {
	s := New(Switch2())
	addFlow(t, s, 1, 10)
	sendProbe(t, s, 1)
	sendProbe(t, s, 2)
	st := s.Stats()
	if st.FlowMods != 1 || st.PacketsSeen != 2 || st.FastHits != 1 || st.MidHits+st.SlowHits != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestVirtualClockAdvances(t *testing.T) {
	s := New(Switch1())
	before := s.Now()
	addFlow(t, s, 1, 10)
	afterAdd := s.Now()
	if !afterAdd.After(before) {
		t.Fatal("clock did not advance on flow-mod")
	}
	sendProbe(t, s, 1)
	if !s.Now().After(afterAdd) {
		t.Fatal("clock did not advance on packet")
	}
}

func TestPortStatusAndConfig(t *testing.T) {
	s := New(Switch2())
	// Features now carries port descriptions.
	replies := s.Handle(&openflow.FeaturesRequest{})
	fr := replies[0].(*openflow.FeaturesReply)
	if len(fr.Ports) != 48 {
		t.Fatalf("ports = %d, want 48", len(fr.Ports))
	}
	if fr.Ports[0].PortNo != 1 || fr.Ports[0].Name != "eth1" {
		t.Fatalf("port 0 = %+v", fr.Ports[0])
	}
	// Taking a port down queues a PORT_STATUS that the next Handle flushes.
	if !s.SetPortDown(3, true) {
		t.Fatal("SetPortDown failed")
	}
	if s.SetPortDown(99, true) {
		t.Fatal("unknown port accepted")
	}
	replies = s.Handle(&openflow.EchoRequest{})
	if len(replies) != 2 {
		t.Fatalf("replies = %d, want PORT_STATUS + ECHO_REPLY", len(replies))
	}
	ps, ok := replies[0].(*openflow.PortStatus)
	if !ok || ps.Desc.PortNo != 3 || ps.Desc.State&openflow.PortStateLinkDown == 0 {
		t.Fatalf("port status = %+v", replies[0])
	}
	if !s.portsDown[3] {
		t.Fatal("port state not recorded")
	}
	// Re-setting the same state is silent.
	s.SetPortDown(3, true)
	if replies := s.Handle(&openflow.EchoRequest{}); len(replies) != 1 {
		t.Fatalf("duplicate state change produced notification: %d", len(replies))
	}
	// GetConfig round trip through SetConfig.
	s.Handle(&openflow.SwitchConfig{Set: true, MissSendLen: 256, Flags: 1})
	replies = s.Handle(&openflow.GetConfigRequest{Header: openflow.Header{Xid: 9}})
	cfg, ok := replies[0].(*openflow.SwitchConfig)
	if !ok || cfg.MissSendLen != 256 || cfg.Flags != 1 || cfg.XID() != 9 {
		t.Fatalf("config = %+v", replies[0])
	}
}

func TestAggregateStats(t *testing.T) {
	s := New(Switch2())
	addFlow(t, s, 1, 10)
	addFlow(t, s, 2, 10)
	sendProbe(t, s, 1)
	sendProbe(t, s, 1)
	replies := s.Handle(&openflow.StatsRequest{StatsType: openflow.StatsTypeAggregate})
	sr := replies[0].(*openflow.StatsReply)
	if sr.Aggregate.FlowCount != 2 || sr.Aggregate.PacketCount != 2 {
		t.Fatalf("aggregate = %+v", sr.Aggregate)
	}
	if sr.Aggregate.ByteCount == 0 {
		t.Fatal("byte count not accumulated")
	}
}

func TestSendPacketNBatchedSemantics(t *testing.T) {
	s := New(OVS())
	addFlow(t, s, 1, 100)
	raw, _ := packet.BuildProbe(packet.ProbeSpec{FlowID: 1})
	res, err := s.SendPacketN(raw, 1, 25)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rule == nil || res.Rule.Packets != 25 {
		t.Fatalf("packets = %d, want 25", res.Rule.Packets)
	}
	if st := s.Stats(); st.PacketsSeen != 25 {
		t.Fatalf("seen = %d", st.PacketsSeen)
	}
	if _, err := s.SendPacketN(raw, 1, 0); err == nil {
		t.Fatal("zero burst accepted")
	}
}

func TestSendPacketNPromotesOnce(t *testing.T) {
	// A burst to a software resident under LFU promotes it exactly as the
	// same number of sequential packets would.
	p := TestSwitch(2, PolicyLFU)
	s := New(p)
	for id := uint32(0); id < 3; id++ {
		addFlow(t, s, id, 100)
	}
	raw, _ := packet.BuildProbe(packet.ProbeSpec{FlowID: 0})
	if _, err := s.SendPacketN(raw, 1, 10); err != nil {
		t.Fatal(err)
	}
	if !s.InTCAM(ptrMatch(0), 100) {
		t.Fatal("burst did not promote under LFU")
	}
}

func TestBurstAdvancesClockProportionally(t *testing.T) {
	s := New(Switch2())
	addFlow(t, s, 1, 100)
	raw, _ := packet.BuildProbe(packet.ProbeSpec{FlowID: 1})
	before := s.Now()
	if _, err := s.SendPacketN(raw, 1, 100); err != nil {
		t.Fatal(err)
	}
	elapsed := s.Now().Sub(before)
	// 100 fast-path RTTs at ~0.4ms each.
	if elapsed < 20*time.Millisecond || elapsed > 80*time.Millisecond {
		t.Fatalf("burst advanced clock by %v", elapsed)
	}
}

package switchsim

import (
	"errors"
	"testing"
	"time"

	"tango/internal/flowtable"
	"tango/internal/openflow"
	"tango/internal/simclock"
)

// addTimedFlow installs flow id with the given timeouts and the
// send-flow-removed flag.
func addTimedFlow(t *testing.T, s *Switch, id uint32, idle, hard uint16) {
	t.Helper()
	err := s.FlowMod(&openflow.FlowMod{
		Command:     openflow.FlowAdd,
		Match:       flowtable.ExactProbeMatch(id),
		Priority:    100,
		IdleTimeout: idle,
		HardTimeout: hard,
		Flags:       openflow.FlagSendFlowRem,
		Actions:     flowtable.Output(1),
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHardTimeoutExpires(t *testing.T) {
	clk := simclock.NewVirtual()
	s := New(Switch2(), WithClock(clk))
	addTimedFlow(t, s, 1, 0, 10)
	addFlow(t, s, 2, 100) // no timeout: must survive

	clk.Sleep(11 * time.Second)
	s.ExpireNow()

	tcam, _, _ := s.RuleCount()
	if tcam != 1 {
		t.Fatalf("rules = %d, want 1 (timed rule expired)", tcam)
	}
	removed := s.TakeFlowRemoved()
	if len(removed) != 1 {
		t.Fatalf("notifications = %d, want 1", len(removed))
	}
	fr := removed[0]
	if fr.Reason != openflow.RemovedHardTimeout || fr.Priority != 100 {
		t.Fatalf("notification = %+v", fr)
	}
	if fr.DurationSec < 10 {
		t.Fatalf("duration = %d s", fr.DurationSec)
	}
	if s.Stats().Expirations != 1 {
		t.Fatalf("stats = %+v", s.Stats())
	}
	// Notifications drain once.
	if len(s.TakeFlowRemoved()) != 0 {
		t.Fatal("notifications not drained")
	}
}

func TestIdleTimeoutRefreshedByTraffic(t *testing.T) {
	clk := simclock.NewVirtual()
	s := New(Switch2(), WithClock(clk))
	addTimedFlow(t, s, 1, 10, 0)

	// Traffic every 5 simulated seconds keeps the flow alive.
	for i := 0; i < 4; i++ {
		clk.Sleep(5 * time.Second)
		if res := sendProbe(t, s, 1); res.Path != PathFast {
			t.Fatalf("iteration %d path = %v", i, res.Path)
		}
	}
	// Then 11 quiet seconds kill it.
	clk.Sleep(11 * time.Second)
	s.ExpireNow()
	if res := sendProbe(t, s, 1); res.Path != PathControl {
		t.Fatalf("expired flow still forwarding: %v", res.Path)
	}
	removed := s.TakeFlowRemoved()
	if len(removed) != 1 || removed[0].Reason != openflow.RemovedIdleTimeout {
		t.Fatalf("notifications = %+v", removed)
	}
}

func TestExpirySweepsLazilyOnFlowMod(t *testing.T) {
	clk := simclock.NewVirtual()
	s := New(Switch2(), WithClock(clk))
	addTimedFlow(t, s, 1, 0, 5)
	clk.Sleep(6 * time.Second)
	// The next control-plane op triggers the sweep without ExpireNow.
	addFlow(t, s, 2, 100)
	tcam, _, _ := s.RuleCount()
	if tcam != 1 {
		t.Fatalf("rules = %d, want only the new one", tcam)
	}
}

func TestDeleteEmitsFlowRemoved(t *testing.T) {
	s := New(Switch2())
	addTimedFlow(t, s, 1, 0, 0) // flag set, no timeouts
	m := flowtable.ExactProbeMatch(1)
	if err := s.FlowMod(&openflow.FlowMod{Command: openflow.FlowDeleteStrict, Match: m, Priority: 100}); err != nil {
		t.Fatal(err)
	}
	removed := s.TakeFlowRemoved()
	if len(removed) != 1 || removed[0].Reason != openflow.RemovedDelete {
		t.Fatalf("notifications = %+v", removed)
	}
	// Rules without the flag stay silent.
	addFlow(t, s, 2, 100)
	m2 := flowtable.ExactProbeMatch(2)
	if err := s.FlowMod(&openflow.FlowMod{Command: openflow.FlowDeleteStrict, Match: m2, Priority: 100}); err != nil {
		t.Fatal(err)
	}
	if len(s.TakeFlowRemoved()) != 0 {
		t.Fatal("unflagged delete produced a notification")
	}
}

func TestHandleFlushesFlowRemoved(t *testing.T) {
	clk := simclock.NewVirtual()
	s := New(Switch2(), WithClock(clk))
	addTimedFlow(t, s, 1, 0, 5)
	clk.Sleep(6 * time.Second)
	// The next handled message triggers the sweep and carries the
	// notification ahead of its reply.
	replies := s.Handle(&openflow.EchoRequest{Header: openflow.Header{Xid: 3}})
	if len(replies) != 2 {
		t.Fatalf("replies = %d, want FLOW_REMOVED + ECHO_REPLY", len(replies))
	}
	if replies[0].Type() != openflow.TypeFlowRemoved {
		t.Fatalf("first reply = %v", replies[0].Type())
	}
	if replies[1].Type() != openflow.TypeEchoReply || replies[1].XID() != 3 {
		t.Fatalf("second reply = %v", replies[1].Type())
	}
}

func TestNoTimeoutRulesCostNothing(t *testing.T) {
	s := New(Switch2())
	for id := uint32(0); id < 100; id++ {
		addFlow(t, s, id, 100)
	}
	// nextExpiry must remain unset so sweeps stay O(1).
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.nextExpiry.IsZero() {
		t.Fatal("expiry deadline set without any timed rules")
	}
}

// TestFullHierarchyTimedExpiry is the big-table path at full size: one
// Switch #1 filled to its whole hierarchy — 2048 TCAM entries plus the
// default 1<<17-rule software table — at one priority, so every software
// install is an append and the exact index grows through every resize up to
// its largest. Every 16th rule carries a hard timeout and every 16th, offset
// by eight, an idle one; the two kinds are expired in separate sweeps, so
// each sweep swap-removes entries out of the middle of the timed-rule list.
// The arena, index and timed-list invariants must hold after each step.
func TestFullHierarchyTimedExpiry(t *testing.T) {
	p := Switch1()
	p.SoftwareCapacity = defaultSoftwareCapacity
	clk := simclock.NewVirtual()
	s := New(p, WithClock(clk))
	tcamCap := p.TCAM.CapacityWide
	capacity := tcamCap + defaultSoftwareCapacity
	const (
		prio        = 100
		hardTimeout = 60  // seconds
		idleTimeout = 600 // seconds
	)

	start := clk.Now()
	var hard, idle []uint32
	for id := uint32(0); id < uint32(capacity); id++ {
		fm := openflow.FlowMod{
			Command:  openflow.FlowAdd,
			Match:    flowtable.ExactProbeMatch(id),
			Priority: prio,
			Actions:  flowtable.Output(1),
		}
		switch id % 16 {
		case 1:
			fm.HardTimeout, fm.Flags = hardTimeout, openflow.FlagSendFlowRem
			hard = append(hard, id)
		case 9:
			fm.IdleTimeout, fm.Flags = idleTimeout, openflow.FlagSendFlowRem
			idle = append(idle, id)
		}
		if err := s.FlowMod(&fm); err != nil {
			t.Fatalf("add flow %d of %d: %v", id, capacity, err)
		}
	}
	if fill := clk.Now().Sub(start); fill+hardTimeout*time.Second >= idleTimeout*time.Second {
		t.Fatalf("the fill took %v of virtual time: idle rules would expire in the hard-timeout sweep", fill)
	}
	if err := addFlowErr(s, uint32(capacity), prio); !errors.Is(err, ErrTableFull) {
		t.Fatalf("add past %d rules: err = %v, want ErrTableFull", capacity, err)
	}
	checkCounts := func(stage string, tcam, soft, timed int) {
		t.Helper()
		if gotTCAM, _, gotSoft := s.RuleCount(); gotTCAM != tcam || gotSoft != soft {
			t.Fatalf("%s: %d TCAM + %d software rules, want %d + %d", stage, gotTCAM, gotSoft, tcam, soft)
		}
		if len(s.timedEnts) != timed {
			t.Fatalf("%s: timed-rule list holds %d, want %d", stage, len(s.timedEnts), timed)
		}
		checkIndexes(t, s)
	}
	checkCounts("full", tcamCap, defaultSoftwareCapacity, len(hard)+len(idle))
	// FIFO keeps the first installs in TCAM; the rest append to the software
	// table in install order.
	for i, r := range s.software.Rules() {
		if want := flowtable.ExactProbeMatch(uint32(tcamCap + i)); r.Match != want {
			t.Fatalf("software slot %d holds %v, want flow %d's rule", i, r.Match, tcamCap+i)
		}
	}
	if res := sendProbe(t, s, 0); res.Path != PathFast {
		t.Fatalf("first install served by %v, want fast", res.Path)
	}
	if res := sendProbe(t, s, uint32(capacity-1)); res.Path != PathSlow {
		t.Fatalf("last install served by %v, want slow", res.Path)
	}

	expire := func(stage string, after time.Duration, ids []uint32, reason uint8) {
		t.Helper()
		clk.Sleep(after)
		s.ExpireNow()
		removed := s.TakeFlowRemoved()
		if len(removed) != len(ids) {
			t.Fatalf("%s: %d FLOW_REMOVED notifications, want %d", stage, len(removed), len(ids))
		}
		for i, fr := range removed {
			if fr.Reason != reason {
				t.Fatalf("%s: notification %d has reason %d, want %d", stage, i, fr.Reason, reason)
			}
		}
	}
	// Freed TCAM slots refill from the software table, so TCAM stays full.
	expire("hard sweep", hardTimeout*time.Second, hard, openflow.RemovedHardTimeout)
	live := capacity - len(hard)
	checkCounts("after the hard sweep", tcamCap, live-tcamCap, len(idle))
	expire("idle sweep", idleTimeout*time.Second, idle, openflow.RemovedIdleTimeout)
	live -= len(idle)
	checkCounts("after the idle sweep", tcamCap, live-tcamCap, 0)
	if !s.nextExpiry.IsZero() {
		t.Fatalf("no timed rule left, but the next sweep is due at %v", s.nextExpiry)
	}

	// The expired rules' arena slots are reused: refilling to capacity grows
	// nothing, and the table is full again at the same count.
	arena := len(s.entries)
	for _, id := range append(hard, idle...) {
		addFlow(t, s, id, prio)
	}
	if len(s.entries) != arena {
		t.Fatalf("refill grew the arena from %d to %d slots", arena, len(s.entries))
	}
	if err := addFlowErr(s, uint32(capacity), prio); !errors.Is(err, ErrTableFull) {
		t.Fatalf("add past %d rules after the refill: err = %v, want ErrTableFull", capacity, err)
	}
	checkCounts("refilled", tcamCap, defaultSoftwareCapacity, 0)
}

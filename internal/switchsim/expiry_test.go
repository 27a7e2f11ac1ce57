package switchsim

import (
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

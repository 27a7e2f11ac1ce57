package switchsim

import (
	"testing"
	"time"

	"tango/internal/flowtable"
	"tango/internal/openflow"
	"tango/internal/simclock"
)

// deleteFlow strict-deletes flow id's exact probe rule at priority 100.
func deleteFlow(t *testing.T, s *Switch, id uint32) {
	t.Helper()
	if err := s.FlowMod(&openflow.FlowMod{
		Command: openflow.FlowDeleteStrict, Match: flowtable.ExactProbeMatch(id), Priority: 100,
	}); err != nil {
		t.Fatal(err)
	}
}

// TestCacheMoveKeepsTimeouts checks that moving a rule between the TCAM and
// the software tier leaves its timers alone: the hard timeout still counts
// from the install, the idle timer from the last matched packet, and the
// FLOW_REMOVED duration covers the rule's whole life. On a one-entry LRU
// cache, flow 1 is demoted by flow 2's install and promoted back, once by
// its own traffic and once by the refill after flow 2's delete.
func TestCacheMoveKeepsTimeouts(t *testing.T) {
	for _, tc := range []struct {
		name       string
		idle, hard uint16
		reason     uint8
		// promote moves flow 1 back into the TCAM three seconds after its
		// demotion.
		promote func(t *testing.T, s *Switch)
	}{
		{"hard", 0, 10, openflow.RemovedHardTimeout, func(t *testing.T, s *Switch) { sendProbe(t, s, 1) }},
		{"idle", 10, 0, openflow.RemovedIdleTimeout, func(t *testing.T, s *Switch) { deleteFlow(t, s, 2) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := simclock.NewVirtual()
			s := New(TestSwitch(1, PolicyLRU), WithClock(clk))
			installed := clk.Now()
			addTimedFlow(t, s, 1, tc.idle, tc.hard)
			clk.Sleep(3 * time.Second)
			addFlow(t, s, 2, 100)
			if s.InTCAM(ptrMatch(1), 100) {
				t.Fatal("flow 2's install did not demote flow 1")
			}
			clk.Sleep(3 * time.Second)
			tc.promote(t, s)
			if !s.InTCAM(ptrMatch(1), 100) {
				t.Fatal("flow 1 was not promoted back")
			}
			clk.Sleep(installed.Add(11 * time.Second).Sub(clk.Now()))
			s.ExpireNow()
			if s.InTCAM(ptrMatch(1), 100) || s.Stats().Expirations != 1 {
				t.Fatalf("flow 1 outlived its 10 s timeout by a second (stats %+v)", s.Stats())
			}
			removed := s.TakeFlowRemoved()
			if len(removed) != 1 || removed[0].Reason != tc.reason {
				t.Fatalf("FLOW_REMOVED = %+v, want one with reason %d", removed, tc.reason)
			}
			if got := removed[0].DurationSec; got != 11 {
				t.Fatalf("FLOW_REMOVED duration = %d s, want the 11 s since the install", got)
			}
		})
	}
}

// TestDuplicateAddAcrossTiers re-adds a flow identical in match and priority
// to an installed one, once while the installed copy sits in the software
// tier and once while it sits in the TCAM. OpenFlow 1.0 (§4.6) removes the
// installed flow, counters included, and adds the new one: the ADD's
// actions, cookie and timeouts take effect, the counters and timers restart,
// the add is charged, and nothing is evicted or installed a second time.
// Flow 1 starts with a 4 s hard timeout that its re-add replaces; flow 2
// starts untimed, with a matched packet, and its re-add gives it a timeout.
func TestDuplicateAddAcrossTiers(t *testing.T) {
	clk := simclock.NewVirtual()
	s := New(TestSwitch(1, PolicyLRU), WithClock(clk))
	addTimedFlow(t, s, 1, 0, 4)
	addFlow(t, s, 2, 100) // demotes flow 1
	sendProbe(t, s, 2)
	clk.Sleep(3 * time.Second)
	for _, id := range []uint32{1, 2} {
		before, start := s.Stats(), s.Now()
		cookie := uint64(0xc0 + id)
		if err := s.FlowMod(&openflow.FlowMod{
			Command: openflow.FlowAdd, Match: flowtable.ExactProbeMatch(id), Priority: 100,
			Cookie: cookie, Actions: flowtable.Output(7), HardTimeout: 10, Flags: openflow.FlagSendFlowRem,
		}); err != nil {
			t.Fatalf("re-add flow %d: %v", id, err)
		}
		if !s.Now().After(start) {
			t.Fatalf("re-adding flow %d cost no time", id)
		}
		// The one-entry TCAM is full, so a move either way evicts.
		if after := s.Stats(); after.Evictions != before.Evictions {
			t.Fatalf("re-adding flow %d moved rules between tiers: %+v -> %+v", id, before, after)
		}
		if tcam, _, soft := s.RuleCount(); tcam != 1 || soft != 1 {
			t.Fatalf("after re-adding flow %d: %d TCAM + %d software rules, want 1 + 1", id, tcam, soft)
		}
		sr := s.Handle(&openflow.StatsRequest{StatsType: openflow.StatsTypeFlow})[0].(*openflow.StatsReply)
		if len(sr.Flows) != 2 {
			t.Fatalf("after re-adding flow %d: flow stats list %d entries for 2 flows", id, len(sr.Flows))
		}
		for _, fs := range sr.Flows {
			if fs.Match == flowtable.ExactProbeMatch(id) && (fs.Cookie != cookie || len(fs.Actions) != 1 || fs.Actions[0].Port != 7 || fs.PacketCount != 0) {
				t.Fatalf("re-add did not replace flow %d: %+v", id, fs)
			}
		}
		checkIndexes(t, s)
	}
	if !s.InTCAM(ptrMatch(2), 100) || s.InTCAM(ptrMatch(1), 100) {
		t.Fatal("re-adds changed which flow the TCAM holds")
	}
	reAdded := s.Now()
	clk.Sleep(2 * time.Second) // past flow 1's replaced 4 s timeout
	s.ExpireNow()
	if n := s.Stats().Expirations; n != 0 {
		t.Fatalf("%d rules expired on the timeout flow 1's re-add replaced", n)
	}
	clk.Sleep(reAdded.Add(10 * time.Second).Sub(clk.Now()))
	s.ExpireNow()
	removed := s.TakeFlowRemoved()
	if len(removed) != 2 {
		t.Fatalf("%d FLOW_REMOVED 10 s after the re-adds, want both flows'", len(removed))
	}
	for _, fr := range removed {
		if fr.Reason != openflow.RemovedHardTimeout || fr.DurationSec != 10 || fr.PacketCount != 0 {
			t.Fatalf("FLOW_REMOVED %+v, want a hard timeout 10 s after the re-add, with no packets", fr)
		}
	}
}

package switchsim

import (
	"errors"
	"testing"
	"time"

	"tango/internal/flowtable"
	"tango/internal/openflow"
	"tango/internal/packet"
	"tango/internal/simclock"
)

// FuzzSwitchOps decodes its input into a sequence of adds (with and without
// idle and hard timeouts), strict deletes, duplicate adds, data packets and
// clock advances, and replays it on a small policy-cache switch under each
// cache policy the dataplane_churn benchmark runs — FDRC with a window short
// enough to roll within a sequence — and under keepLowTraffic, whose touches
// lower keys where the others raise them, so both of a heap's deferral
// modes run (evictindex.go); then on a small microflow switch whose kernel
// cache holds four flows, so its LRU eviction runs, and whose flows share
// address words. After every op the eviction indexes must agree with their
// full-scan oracles and the arena, exact-index, timed-list, tier and kernel
// invariants must hold (checkIndexes), and a duplicate add must leave the
// rule as the new ADD describes it (checkReplaced).
//
// The first byte picks whether the switch starts with a default route; every
// op after it is two bytes, a and b (testdata/fuzz/FuzzSwitchOps holds the
// seed corpus):
//
//	a%6  op             flow id b%24, L2-only match when b >= 128
//	0    add            priority 10, 20 or 30 by a/6%3
//	1    timed add      idle a/18%4 s, hard b>>5&3 s
//	2    strict delete
//	3    duplicate add  of installed rule b%n, new actions and cookie,
//	                    timeouts as for a timed add
//	4    packet burst   of a/18%8+1 packets, TCP source port moved by
//	                    b>>7 + a/144*2 (the rules match any)
//	5    clock advance  b%4 s, then an expiry sweep
func FuzzSwitchOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		if len(ops) > 129 {
			// 64 ops fill and churn the 16-rule switch several times over;
			// longer inputs only slow the fuzzer down.
			ops = ops[:129]
		}
		for _, policy := range []Policy{PolicyFIFO, PolicyLRU, PolicyLFU, PolicyDestAggregate(), PolicyFDRC(8), keepLowTraffic} {
			p := TestSwitch(4, policy)
			p.SoftwareCapacity = 12
			replayOps(t, p, ops)
		}
		p := OVS()
		p.SoftwareCapacity, p.KernelCapacity = 12, 4
		replayOps(t, p, ops)
	})
}

// replayOps runs one decoded op sequence (see FuzzSwitchOps) on a switch
// built from p, checking the invariants after each op.
func replayOps(t *testing.T, p Profile, ops []byte) {
	clk := simclock.NewVirtual()
	opts := []Option{WithClock(clk)}
	if ops[0]&1 == 1 {
		opts = append(opts, WithDefaultRoute())
	}
	s := New(p, opts...)
	checkIndexes(t, s)
	priorities := [3]uint16{10, 20, 30}
	for i := 1; i+1 < len(ops); i += 2 {
		a, b := ops[i], ops[i+1]
		id := uint32(b % 24)
		m := flowtable.ExactProbeMatch(id)
		if b >= 128 {
			m = flowtable.L2ProbeMatch(id)
		}
		fm := openflow.FlowMod{
			Command: openflow.FlowAdd, Match: m, Priority: priorities[a/6%3],
			Actions: flowtable.Output(1), Flags: openflow.FlagSendFlowRem,
		}
		var err error
		switch a % 6 {
		case 0:
			err = s.FlowMod(&fm)
		case 1:
			fm.IdleTimeout, fm.HardTimeout = uint16(a/18%4), uint16(b>>5&3)
			err = s.FlowMod(&fm)
		case 2:
			fm.Command = openflow.FlowDeleteStrict
			err = s.FlowMod(&fm)
		case 3:
			s.mu.Lock()
			installed := s.rules.Rules()
			var r *flowtable.Rule
			if len(installed) > 0 {
				r = installed[int(b)%len(installed)]
			}
			s.mu.Unlock()
			if r == nil {
				continue
			}
			fm.Match, fm.Priority = r.Match, r.Priority
			fm.Actions, fm.Cookie = flowtable.Output(2), r.Cookie+1
			fm.IdleTimeout, fm.HardTimeout = uint16(a/18%4), uint16(b>>5&3)
			before := clk.Now()
			if err = s.FlowMod(&fm); err == nil {
				checkReplaced(t, s, &fm, before, clk.Now())
			}
		case 4:
			var f packet.Frame
			packet.BuildProbeFrame(&f, packet.ProbeSpec{FlowID: id})
			f.TCP.SrcPort += uint16(b>>7) + uint16(a/144)*2
			raw, berr := f.AppendSerialize(nil)
			if berr != nil {
				t.Fatal(berr)
			}
			_, err = s.SendPacketN(raw, 1, int(a/18%8)+1)
		case 5:
			clk.Sleep(time.Duration(b%4) * time.Second)
			s.ExpireNow()
		}
		if err != nil && !errors.Is(err, ErrTableFull) {
			t.Fatalf("%s %v, op %d (%d, %d): %v", p.Kind, p.CachePolicy, i/2, a, b, err)
		}
		checkIndexes(t, s)
	}
}

// checkReplaced checks that the installed rule with fm's match and priority
// is fm as OpenFlow 1.0 adds it: fm's actions, cookie, timeouts and flags,
// zero counters, and both timers stamped inside the add, [from, to].
func checkReplaced(t *testing.T, s *Switch, fm *openflow.FlowMod, from, to time.Time) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.rules.Find(&fm.Match, fm.Priority)
	switch {
	case r == nil:
		t.Fatalf("re-added rule %v/%d is not installed", fm.Match, fm.Priority)
	case r.Cookie != fm.Cookie || len(r.Actions) != 1 || r.Actions[0] != fm.Actions[0] ||
		r.IdleTimeout != fm.IdleTimeout || r.HardTimeout != fm.HardTimeout || !r.SendFlowRem:
		t.Fatalf("re-add left %+v, want the ADD's actions, cookie, timeouts and flags", r)
	case r.Packets != 0 || r.Bytes != 0:
		t.Fatalf("re-add kept the counters: %d packets, %d bytes", r.Packets, r.Bytes)
	case r.InstalledAt < from.UnixNano() || r.InstalledAt > to.UnixNano() || r.LastUsedAt != r.InstalledAt:
		t.Fatalf("re-add during [%v, %v] left install %v, last use %v", from, to, time.Unix(0, r.InstalledAt), time.Unix(0, r.LastUsedAt))
	}
}

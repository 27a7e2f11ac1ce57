package switchsim

import (
	"time"

	"tango/internal/flowtable"
	"tango/internal/openflow"
)

// expiry.go implements idle and hard flow timeouts with FLOW_REMOVED
// notifications. Expiry is swept lazily: the switch tracks the earliest
// possible deadline across rules that carry timeouts and only walks the
// timed-rule list when the virtual clock passes it. Workloads without
// timeouts (all probing patterns) pay nothing, and — critical at fleet
// scale — a table holding a million permanent residents plus a few hundred
// churning timed rules sweeps only the few hundred, not the million.

// noTimed is the timedIdx sentinel for "not in the timed-rule list".
const noTimed int32 = -1

// scheduleExpiry records that a rule with timeouts exists: the rule's entry
// joins the timed-rule list (once) and the next sweep deadline is pulled
// forward. Callers hold s.mu and have set r.Ext.
func (s *Switch) scheduleExpiry(r *flowtable.Rule) {
	d := ruleDeadline(r)
	if d == 0 {
		return
	}
	if e := s.entryAt(r.Ext); e != nil && e.timedIdx == noTimed {
		e.timedIdx = int32(len(s.timedEnts))
		s.timedEnts = append(s.timedEnts, e.self)
	}
	if s.nextExpiry == 0 || d < s.nextExpiry {
		s.nextExpiry = d
	}
}

// untimeEntry swap-removes e from the timed-rule list. Callers hold s.mu.
func (s *Switch) untimeEntry(e *entry) {
	i := e.timedIdx
	if i == noTimed {
		return
	}
	e.timedIdx = noTimed
	last := len(s.timedEnts) - 1
	if int(i) != last {
		moved := s.timedEnts[last]
		s.timedEnts[i] = moved
		s.ent(moved).timedIdx = i
	}
	s.timedEnts = s.timedEnts[:last]
}

// Rule times are Unix nanoseconds (flowtable.Rule.InstalledAt): every clock
// here reads after 1970, so a deadline, an install time plus at least a
// second, is never 0, and 0 can mean "never".

// hardDeadline and idleDeadline return when r's hard or idle timeout fires,
// 0 when it has none.
func hardDeadline(r *flowtable.Rule) int64 {
	if r.HardTimeout == 0 {
		return 0
	}
	return r.InstalledAt + int64(r.HardTimeout)*int64(time.Second)
}

func idleDeadline(r *flowtable.Rule) int64 {
	if r.IdleTimeout == 0 {
		return 0
	}
	return r.LastUsedAt + int64(r.IdleTimeout)*int64(time.Second)
}

// ruleDeadline returns the earliest instant at which r could expire, or 0
// when it never does.
func ruleDeadline(r *flowtable.Rule) int64 {
	d, idle := hardDeadline(r), idleDeadline(r)
	if idle != 0 && (d == 0 || idle < d) {
		d = idle
	}
	return d
}

// expireLocked removes every rule whose timeout has passed as of now,
// queueing FLOW_REMOVED notifications for rules that asked for them.
// Callers hold s.mu.
func (s *Switch) expireLocked(now time.Time) {
	if s.nextExpiry == 0 {
		return
	}
	t := now.UnixNano()
	if t < s.nextExpiry {
		return
	}
	s.nextExpiry = 0
	var victims []*flowtable.Rule
	var reasons []uint8
	// Walk only the timed-rule list, in schedule (install) order. Victims
	// are collected first — removeRule below unlinks them via freeRule, so
	// mutating during iteration would skip the swapped-in tail handles.
	for _, h := range s.timedEnts {
		r := s.ent(h).rule
		switch hard, idle := hardDeadline(r), idleDeadline(r); {
		case hard != 0 && t >= hard:
			victims = append(victims, r)
			reasons = append(reasons, openflow.RemovedHardTimeout)
		case idle != 0 && t >= idle:
			victims = append(victims, r)
			reasons = append(reasons, openflow.RemovedIdleTimeout)
		default:
			// Still alive: fold its deadline into the next sweep.
			if d := ruleDeadline(r); d != 0 && (s.nextExpiry == 0 || d < s.nextExpiry) {
				s.nextExpiry = d
			}
		}
	}
	for i, r := range victims {
		s.noteRemoved(r, reasons[i], now)
		s.removeRule(r)
		s.stats.Expirations++
		s.tel.expirations.Add(1)
	}
	if len(victims) > 0 && s.tel.enabled() {
		s.updateOccupancy()
	}
}

// noteRemoved queues a FLOW_REMOVED notification if the rule asked for one.
func (s *Switch) noteRemoved(r *flowtable.Rule, reason uint8, now time.Time) {
	if !r.SendFlowRem {
		return
	}
	dur := time.Duration(max(now.UnixNano()-r.InstalledAt, 0))
	s.removedQueue = append(s.removedQueue, &openflow.FlowRemoved{
		Match:        r.Match,
		Cookie:       r.Cookie,
		Priority:     r.Priority,
		Reason:       reason,
		DurationSec:  uint32(dur / time.Second),
		DurationNsec: uint32(dur % time.Second),
		IdleTimeout:  r.IdleTimeout,
		PacketCount:  r.Packets,
		ByteCount:    r.Bytes,
	})
}

// TakeFlowRemoved drains the queued FLOW_REMOVED notifications. The TCP
// agent loop flushes them ahead of the next reply; in-process controllers
// poll after advancing time.
func (s *Switch) TakeFlowRemoved() []*openflow.FlowRemoved {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.removedQueue
	s.removedQueue = nil
	return out
}

// ExpireNow forces an expiry sweep at the current clock reading — useful
// after advancing a virtual clock past rule deadlines.
func (s *Switch) ExpireNow() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.nextExpiry != 0 {
		s.expireLocked(s.clock.Now())
	}
}

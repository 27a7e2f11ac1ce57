package conformance

import (
	"time"

	"tango/internal/core/probe"
	"tango/internal/flowtable"
	"tango/internal/openflow"
	"tango/internal/packet"
	"tango/internal/workload"
)

// background.go interleaves adversarial or churn traffic with whatever
// engine is driving a device. A Background is stepped synchronously by the
// conformance device (newDevice) at the entry of every foreground operation —
// on the switch's own (virtual) clock, before the foreground op runs — so
// schedules replay deterministically: the interleaving is a pure function of
// the foreground op sequence and the schedule, with no wall-clock goroutine
// races.

// Background is a traffic source running concurrently with the foreground
// engine. Step is called with the bare device before each foreground
// operation; implementations apply whatever schedule entries are due and
// return. Step must not retain dev.
type Background interface {
	Step(dev probe.FrameDevice)
}

// touch sends one packet of flow id: f is the calling driver's one frame,
// built on first use (drivers are also made as struct literals) and
// retargeted in place from then on. A send the device rejects is part of
// the background's effect on the switch, not a failure of the run.
func touch(dev probe.FrameDevice, f *packet.Frame, id uint32) {
	if !f.HasIPv4 {
		packet.BuildProbeFrame(f, packet.ProbeSpec{})
	}
	packet.RetargetProbeFrame(f, id)
	_, _, _ = dev.SendFrameN(f, 1, packet.ProbeFrameLen, 1)
}

// ChurnDriver replays a workload.Churn schedule against the device: events
// whose offset has passed on the device clock are applied, in order, at the
// entry of each foreground operation. Installs carry the schedule's idle
// and hard timeouts, driving the switch's lazy expiry sweep while the
// foreground runs.
type ChurnDriver struct {
	events  []workload.ChurnEvent
	started bool
	start   time.Time
	next    int
	frame   packet.Frame
}

// churnPriority is the rule priority of churn installs: below every probing
// priority, so churn rules never shadow probe flows.
const churnPriority = 10

// NewChurnDriver wraps a schedule; an empty schedule (rate 0) returns nil,
// which newDevice treats as no background at all.
func NewChurnDriver(events []workload.ChurnEvent) *ChurnDriver {
	if len(events) == 0 {
		return nil
	}
	return &ChurnDriver{events: events}
}

// Step implements Background.
func (c *ChurnDriver) Step(dev probe.FrameDevice) {
	if !c.started {
		c.started, c.start = true, dev.Now()
	}
	elapsed := dev.Now().Sub(c.start)
	for c.next < len(c.events) && c.events[c.next].At <= elapsed {
		c.apply(dev, c.events[c.next])
		c.next++
	}
}

// apply runs one schedule event. A rejected event (an install bounced
// table-full mid-churn) is part of the churn's effect on the switch, not a
// failure of the run.
func (c *ChurnDriver) apply(dev probe.FrameDevice, ev workload.ChurnEvent) {
	switch ev.Kind {
	case workload.ChurnInstall:
		fm := &openflow.FlowMod{
			Command:     openflow.FlowAdd,
			Match:       flowtable.ExactProbeMatch(ev.Flow),
			Priority:    churnPriority,
			IdleTimeout: ev.IdleTimeout,
			HardTimeout: ev.HardTimeout,
			Actions:     flowtable.Output(2),
		}
		_ = dev.FlowMod(fm)
	case workload.ChurnTouch:
		touch(dev, &c.frame, ev.Flow)
	}
}

// Applied returns how many schedule events have executed (including ones
// that errored, e.g. installs rejected table-full mid-churn).
func (c *ChurnDriver) Applied() int { return c.next }

// AttackDriver replays a workload.OverflowAttack schedule as background
// noise: every attackEvery-th foreground operation applies a burst of
// attackBurst attack ops. Unlike the attacker-in-the-foreground scenario
// (which interprets canary timings), it just executes the schedule: it
// models a concurrent tenant running the attack while Tango infers.
type AttackDriver struct {
	// Ops is the attack schedule.
	Ops []workload.AttackOp

	calls, next int
	frame       packet.Frame
}

// The attack's pace and rules: attackBurst ops every attackEvery foreground
// ops, installs at attackPriority.
const (
	attackEvery    = 4
	attackBurst    = 4
	attackPriority = 900
)

// Step implements Background.
func (a *AttackDriver) Step(dev probe.FrameDevice) {
	if a.next >= len(a.Ops) {
		return
	}
	a.calls++
	if a.calls%attackEvery != 0 {
		return
	}
	for i := 0; i < attackBurst && a.next < len(a.Ops); i++ {
		op := a.Ops[a.next]
		a.next++
		a.apply(dev, op)
	}
}

// apply runs one attack op. A rejected op (an install bounced table-full) is
// part of the attack's effect on the switch, not a failure of the run.
func (a *AttackDriver) apply(dev probe.FrameDevice, op workload.AttackOp) {
	switch op.Kind {
	case workload.AttackInstall:
		fm := &openflow.FlowMod{
			Command:  openflow.FlowAdd,
			Match:    flowtable.ExactProbeMatch(op.Flow),
			Priority: attackPriority,
			Actions:  flowtable.Output(2),
		}
		_ = dev.FlowMod(fm)
	case workload.AttackProbe:
		touch(dev, &a.frame, op.Flow)
	}
}

// Applied returns how many attack ops have executed.
func (a *AttackDriver) Applied() int { return a.next }

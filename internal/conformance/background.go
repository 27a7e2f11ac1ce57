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
// engine is driving a device. A Background is stepped synchronously at the
// entry of every wrapped device operation — on the device's own (virtual)
// clock, before the foreground op runs — so schedules replay
// deterministically: the interleaving is a pure function of the foreground
// op sequence and the schedule, with no wall-clock goroutine races.

// Background is a traffic source running concurrently with the foreground
// engine. Step is called with the *unwrapped* device before each foreground
// operation; implementations apply whatever schedule entries are due and
// return. Step must not retain dev.
type Background interface {
	Step(dev probe.FrameDevice)
}

// WrapBackground returns a device that steps bg before every foreground
// operation. A nil bg returns dev unchanged, and so does the nil *ChurnDriver
// NewChurnDriver returns for an empty schedule: stored in a Background it is
// a non-nil interface, and stepping it would dereference nil.
func WrapBackground(dev probe.SimDevice, bg Background) probe.FrameDevice {
	if cd, ok := bg.(*ChurnDriver); bg == nil || ok && cd == nil {
		return dev
	}
	return &backgroundDevice{dev: dev, bg: bg}
}

// backgroundDevice steps the background source before each operation. Like
// faults.Device it is typed on the emulator's device, the only one ever
// wrapped, holds it in a named field and implements exactly
// probe.FrameDevice: the engine resolves the same send path as on the bare
// device, which the wrapper-transparency differential pins.
type backgroundDevice struct {
	dev probe.SimDevice
	bg  Background
}

var _ probe.FrameDevice = (*backgroundDevice)(nil)

// FlowMod implements probe.Device.
func (d *backgroundDevice) FlowMod(fm *openflow.FlowMod) error {
	d.bg.Step(d.dev)
	return d.dev.FlowMod(fm)
}

// SendProbe implements probe.Device.
func (d *backgroundDevice) SendProbe(data []byte, inPort uint16) (time.Duration, bool, error) {
	d.bg.Step(d.dev)
	return d.dev.SendProbe(data, inPort)
}

// SendFrameN implements probe.FrameDevice.
func (d *backgroundDevice) SendFrameN(f *packet.Frame, inPort uint16, size, n int) (time.Duration, bool, error) {
	d.bg.Step(d.dev)
	return d.dev.SendFrameN(f, inPort, size, n)
}

// Now implements probe.Device. Reading the clock is not a foreground
// operation and does not advance the schedule; nor are Sleep and the label.
func (d *backgroundDevice) Now() time.Time { return d.dev.Now() }

// Sleep implements probe.Device.
func (d *backgroundDevice) Sleep(dur time.Duration) { d.dev.Sleep(dur) }

// TelemetryLabel implements probe.Device.
func (d *backgroundDevice) TelemetryLabel() string { return d.dev.TelemetryLabel() }

// touch sends one packet of flow id: f is the calling driver's one frame,
// built on first use (drivers are also made as struct literals) and
// retargeted in place from then on.
func touch(dev probe.FrameDevice, f *packet.Frame, id uint32) error {
	if !f.HasIPv4 {
		packet.BuildProbeFrame(f, packet.ProbeSpec{})
	}
	packet.RetargetProbeFrame(f, id)
	_, _, err := dev.SendFrameN(f, 1, packet.ProbeFrameLen, 1)
	return err
}

// ChurnDriver replays a workload.Churn schedule against the device: events
// whose offset has passed on the device clock are applied, in order, at the
// entry of each foreground operation. Installs carry the schedule's idle
// and hard timeouts, driving the switch's lazy expiry sweep while the
// foreground runs.
type ChurnDriver struct {
	// Priority is the rule priority for churn installs (default 10 — below
	// every probing priority, so churn rules never shadow probe flows).
	Priority uint16

	events  []workload.ChurnEvent
	started bool
	start   time.Time
	next    int
	frame   packet.Frame

	installs, touches, errs int
}

// NewChurnDriver wraps a schedule; an empty schedule (rate 0) returns nil,
// which WrapBackground treats as no background at all.
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

func (c *ChurnDriver) apply(dev probe.FrameDevice, ev workload.ChurnEvent) {
	switch ev.Kind {
	case workload.ChurnInstall:
		prio := c.Priority
		if prio == 0 {
			prio = 10
		}
		fm := &openflow.FlowMod{
			Command:     openflow.FlowAdd,
			Match:       flowtable.ExactProbeMatch(ev.Flow),
			Priority:    prio,
			IdleTimeout: ev.IdleTimeout,
			HardTimeout: ev.HardTimeout,
			Actions:     flowtable.Output(2),
		}
		if err := dev.FlowMod(fm); err != nil {
			c.errs++
			return
		}
		c.installs++
	case workload.ChurnTouch:
		if err := touch(dev, &c.frame, ev.Flow); err != nil {
			c.errs++
			return
		}
		c.touches++
	}
}

// Applied returns how many schedule events have executed (including ones
// that errored, e.g. installs rejected table-full mid-churn).
func (c *ChurnDriver) Applied() int { return c.next }

// Installs and Touches report the successfully applied event counts; Errs
// the events the device rejected.
func (c *ChurnDriver) Installs() int { return c.installs }

// Touches reports successfully applied data-plane touches.
func (c *ChurnDriver) Touches() int { return c.touches }

// Errs reports rejected events.
func (c *ChurnDriver) Errs() int { return c.errs }

// AttackDriver replays a workload.OverflowAttack schedule as background
// noise: every Every-th foreground operation applies a burst of attack ops.
// Unlike the attacker-in-the-foreground scenario (which interprets canary
// timings), the driver just executes the schedule — it models a concurrent
// tenant running the attack while Tango infers.
type AttackDriver struct {
	// Ops is the attack schedule.
	Ops []workload.AttackOp
	// Every is the number of foreground ops between bursts (default 4).
	Every int
	// Burst is the number of attack ops applied per active step (default 4).
	Burst int
	// Priority is the attack rules' priority (default 900).
	Priority uint16

	calls, next int
	frame       packet.Frame
}

// Step implements Background.
func (a *AttackDriver) Step(dev probe.FrameDevice) {
	if a.next >= len(a.Ops) {
		return
	}
	a.calls++
	every := a.Every
	if every <= 0 {
		every = 4
	}
	if a.calls%every != 0 {
		return
	}
	burst := a.Burst
	if burst <= 0 {
		burst = 4
	}
	for i := 0; i < burst && a.next < len(a.Ops); i++ {
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
		prio := a.Priority
		if prio == 0 {
			prio = 900
		}
		fm := &openflow.FlowMod{
			Command:  openflow.FlowAdd,
			Match:    flowtable.ExactProbeMatch(op.Flow),
			Priority: prio,
			Actions:  flowtable.Output(2),
		}
		_ = dev.FlowMod(fm)
	case workload.AttackProbe:
		_ = touch(dev, &a.frame, op.Flow)
	}
}

// Applied returns how many attack ops have executed.
func (a *AttackDriver) Applied() int { return a.next }

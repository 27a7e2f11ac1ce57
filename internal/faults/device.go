package faults

import (
	"sync"
	"time"

	"tango/internal/core/probe"
	"tango/internal/openflow"
	"tango/internal/switchsim"
	"tango/internal/telemetry"
)

// Resetter is the optional capability a wrapped device (or its underlying
// switch) must expose for KindReset faults to fire; without it reset draws
// are downgraded to no-ops.
type Resetter interface {
	Reset()
}

// Sleeper is the optional capability used to charge fault latencies (delay
// draws, drop timeouts, retry backoff) against the device's clock. Virtual-
// clock devices advance simulated time; wall-clock devices block.
type Sleeper interface {
	Sleep(d time.Duration)
}

// Device wraps a probe-engine device and perturbs its control channel with
// injected faults. It satisfies probe.Device (and probe.TrafficSender, with
// a loop fallback when the inner device lacks batching), so a faulty switch
// is a drop-in replacement anywhere a healthy one is accepted.
type Device struct {
	dev probe.Device
	inj *Injector

	mu sync.Mutex
	// held is a flow-mod deferred by a reorder fault; it applies after the
	// next operation, swapping the two on the wire. It is the device's own
	// copy: callers reuse one flow-mod across ops (probe.Engine's scratch),
	// so the caller's would read as the next op by the time it is flushed.
	held *openflow.FlowMod

	lateErrs *telemetry.Counter
}

var _ probe.Device = (*Device)(nil)
var _ probe.TrafficSender = (*Device)(nil)

// WrapDevice wraps dev with fault injection. A nil injector returns dev
// unchanged, so a disabled fault configuration costs nothing.
func WrapDevice(dev probe.Device, inj *Injector) probe.Device {
	if inj == nil {
		return dev
	}
	return &Device{
		dev:      dev,
		inj:      inj,
		lateErrs: telemetry.Default().Counter("faults.late_errors"),
	}
}

// Now implements probe.Device.
func (d *Device) Now() time.Time { return d.dev.Now() }

// Sleep implements Sleeper by delegating when the inner device can sleep.
func (d *Device) Sleep(dur time.Duration) {
	if s, ok := d.dev.(Sleeper); ok {
		s.Sleep(dur)
	}
}

// reset clears the underlying switch state when the device supports it,
// reporting whether it did.
func (d *Device) reset() bool {
	if r, ok := d.dev.(Resetter); ok {
		r.Reset()
		return true
	}
	return false
}

// takeHeld pops the reorder-deferred flow-mod, if any. Each operation pops
// at entry and flushes at exit (via flushHeld), so a held op applies after
// the operation that overtook it — never at the end of its own call.
func (d *Device) takeHeld() *openflow.FlowMod {
	d.mu.Lock()
	fm := d.held
	d.held = nil
	d.mu.Unlock()
	return fm
}

// flushHeld applies a reorder-deferred flow-mod after the operation that
// overtook it. Its ack was already (optimistically) returned, so a late
// failure is invisible to the caller — it is only counted.
func (d *Device) flushHeld(fm *openflow.FlowMod) {
	if fm == nil {
		return
	}
	if err := d.dev.FlowMod(fm); err != nil {
		d.lateErrs.Add(1)
	}
}

// FlowMod implements probe.Device with fault injection.
func (d *Device) FlowMod(fm *openflow.FlowMod) error {
	defer d.flushHeld(d.takeHeld())
	dec := d.inj.Decide()
	if !dec.Fire {
		return d.dev.FlowMod(fm)
	}
	switch dec.Kind {
	case KindDrop:
		if dec.AckLoss {
			// The switch applied the op; only the confirmation vanished.
			if err := d.dev.FlowMod(fm); err != nil {
				d.lateErrs.Add(1)
			}
		}
		d.Sleep(d.inj.DropTimeout())
		return &Error{Kind: KindDrop, Op: "flowmod"}
	case KindDelay:
		d.Sleep(dec.Delay)
		return d.dev.FlowMod(fm)
	case KindDuplicate:
		if err := d.dev.FlowMod(fm); err != nil {
			return err
		}
		// The duplicate copy: adds are replaced in place by OpenFlow 1.0
		// semantics, so only idempotent operations re-execute; either way
		// the caller sees the single original ack.
		if fm.Command != openflow.FlowAdd {
			if err := d.dev.FlowMod(fm); err != nil {
				d.lateErrs.Add(1)
			}
		}
		return nil
	case KindReorder:
		d.mu.Lock()
		free := d.held == nil
		if free {
			cp := *fm // the action slice is shared and immutable by contract
			d.held = &cp
		}
		d.mu.Unlock()
		if free {
			return nil // optimistic ack; applies after the next op
		}
		return d.dev.FlowMod(fm)
	case KindReset:
		if d.reset() {
			return &Error{Kind: KindReset, Op: "flowmod"}
		}
		return d.dev.FlowMod(fm)
	case KindOverflow:
		return &Error{Kind: KindOverflow, Op: "flowmod", Wrapped: switchsim.ErrTableFull}
	}
	return d.dev.FlowMod(fm)
}

// SendProbe implements probe.Device with fault injection.
func (d *Device) SendProbe(data []byte, inPort uint16) (time.Duration, bool, error) {
	defer d.flushHeld(d.takeHeld())
	dec := d.inj.Decide()
	if !dec.Fire {
		return d.dev.SendProbe(data, inPort)
	}
	switch dec.Kind {
	case KindDrop:
		if dec.AckLoss {
			// The frame traversed the switch (touching counters and cache
			// state); only the reflected copy was lost.
			if _, _, err := d.dev.SendProbe(data, inPort); err != nil {
				d.lateErrs.Add(1)
			}
		}
		d.Sleep(d.inj.DropTimeout())
		return 0, false, &Error{Kind: KindDrop, Op: "probe"}
	case KindDelay:
		rtt, punted, err := d.dev.SendProbe(data, inPort)
		if err != nil {
			return rtt, punted, err
		}
		d.Sleep(dec.Delay)
		return rtt + dec.Delay, punted, nil
	case KindDuplicate:
		if _, _, err := d.dev.SendProbe(data, inPort); err != nil {
			return 0, false, err
		}
		return d.dev.SendProbe(data, inPort)
	case KindReset:
		if d.reset() {
			return 0, false, &Error{Kind: KindReset, Op: "probe"}
		}
	}
	// Reorder and overflow have no data-plane analogue for a single
	// synchronous probe: deliver it untouched.
	return d.dev.SendProbe(data, inPort)
}

// SendTraffic implements probe.TrafficSender. The whole burst is one
// control-channel message, so it draws one fault decision; without batching
// support underneath, the burst degrades to a probe loop.
func (d *Device) SendTraffic(data []byte, inPort uint16, count int) error {
	defer d.flushHeld(d.takeHeld())
	send := func(n int) error {
		if ts, ok := d.dev.(probe.TrafficSender); ok {
			return ts.SendTraffic(data, inPort, n)
		}
		for i := 0; i < n; i++ {
			if _, _, err := d.dev.SendProbe(data, inPort); err != nil {
				return err
			}
		}
		return nil
	}
	dec := d.inj.Decide()
	if !dec.Fire {
		return send(count)
	}
	switch dec.Kind {
	case KindDrop:
		if dec.AckLoss {
			if err := send(count); err != nil {
				d.lateErrs.Add(1)
			}
		}
		d.Sleep(d.inj.DropTimeout())
		return &Error{Kind: KindDrop, Op: "traffic"}
	case KindDelay:
		d.Sleep(dec.Delay)
		return send(count)
	case KindDuplicate:
		return send(count + 1)
	case KindReset:
		if d.reset() {
			return &Error{Kind: KindReset, Op: "traffic"}
		}
	}
	return send(count)
}

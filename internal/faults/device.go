package faults

import (
	"sync"
	"time"

	"tango/internal/core/probe"
	"tango/internal/openflow"
	"tango/internal/packet"
	"tango/internal/switchsim"
	"tango/internal/telemetry"
)

// Device wraps the emulator's device and perturbs its control channel with
// injected faults. It is typed on probe.SimDevice because that is all anyone
// wraps — a socket is perturbed inside the agent loop instead
// (ofconn.ServeOptions.Faults) — holds it in a named field and implements
// exactly probe.FrameDevice, so no call can bypass the injector and a faulty
// switch is a drop-in replacement anywhere a healthy emulated one is accepted.
type Device struct {
	dev probe.SimDevice
	inj *Injector

	mu sync.Mutex
	// held is a flow-mod deferred by a reorder fault; it applies after the
	// next operation, swapping the two on the wire. It is the device's own
	// copy: callers reuse one flow-mod across ops (probe.Engine's scratch),
	// so the caller's would read as the next op by the time it is flushed.
	held *openflow.FlowMod

	lateErrs *telemetry.Counter
}

var _ probe.FrameDevice = (*Device)(nil)

// WrapDevice wraps dev with fault injection. A nil injector returns dev
// unchanged, so a disabled fault configuration costs nothing.
func WrapDevice(dev probe.SimDevice, inj *Injector) probe.FrameDevice {
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

// Sleep implements probe.Device.
func (d *Device) Sleep(dur time.Duration) { d.dev.Sleep(dur) }

// TelemetryLabel implements probe.Device: a faulty switch keeps its name.
func (d *Device) TelemetryLabel() string { return d.dev.TelemetryLabel() }

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
		d.dev.Reset()
		return &Error{Kind: KindReset, Op: "flowmod"}
	case KindOverflow:
		return &Error{Kind: KindOverflow, Op: "flowmod", Wrapped: switchsim.ErrTableFull}
	}
	return d.dev.FlowMod(fm)
}

// SendProbe implements probe.Device: an encoded packet is a one-packet burst
// of its decoding.
func (d *Device) SendProbe(data []byte, inPort uint16) (time.Duration, bool, error) {
	var f packet.Frame
	if err := packet.DecodeInto(&f, data); err != nil {
		return 0, false, err
	}
	return d.SendFrameN(&f, inPort, len(data), 1)
}

// SendFrameN implements probe.FrameDevice with fault injection. A burst is
// one control-channel message, so it draws one fault decision; the typed
// error names it "probe" when it is one packet and "traffic" otherwise.
func (d *Device) SendFrameN(f *packet.Frame, inPort uint16, size, n int) (time.Duration, bool, error) {
	defer d.flushHeld(d.takeHeld())
	dec := d.inj.Decide()
	if !dec.Fire {
		return d.dev.SendFrameN(f, inPort, size, n)
	}
	op := "traffic"
	if n == 1 {
		op = "probe"
	}
	switch dec.Kind {
	case KindDrop:
		if dec.AckLoss {
			// The frames traversed the switch (touching counters and cache
			// state); only the reflected copy was lost.
			if _, _, err := d.dev.SendFrameN(f, inPort, size, n); err != nil {
				d.lateErrs.Add(1)
			}
		}
		d.Sleep(d.inj.DropTimeout())
		return 0, false, &Error{Kind: KindDrop, Op: op}
	case KindDelay:
		rtt, punted, err := d.dev.SendFrameN(f, inPort, size, n)
		if err != nil {
			return rtt, punted, err
		}
		d.Sleep(dec.Delay)
		return rtt + dec.Delay, punted, nil
	case KindDuplicate:
		return d.dev.SendFrameN(f, inPort, size, n+1)
	case KindReset:
		d.dev.Reset()
		return 0, false, &Error{Kind: KindReset, Op: op}
	}
	// Reorder and overflow have no data-plane analogue for a synchronous
	// send: deliver it untouched.
	return d.dev.SendFrameN(f, inPort, size, n)
}

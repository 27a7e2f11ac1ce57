package conformance

import (
	"sync"
	"time"

	"tango/internal/core/probe"
	"tango/internal/faults"
	"tango/internal/openflow"
	"tango/internal/packet"
	"tango/internal/switchsim"
	"tango/internal/telemetry"
)

// device is the one interposer between a probing engine and the emulator:
// before each foreground operation it steps the background source on the
// bare switch, then applies the fault injector's decision to the operation.
// A socket is perturbed inside the agent loop instead
// (ofconn.ServeOptions.Faults). The device holds the SimDevice in a named
// field and implements exactly probe.FrameDevice, so no call can bypass it
// and it is a drop-in replacement anywhere a bare emulated switch is accepted.
type device struct {
	dev probe.SimDevice
	inj *faults.Injector // nil injects nothing
	bg  Background       // nil steps nothing

	mu sync.Mutex
	// held is a flow-mod deferred by a reorder fault; it applies after the
	// next operation, swapping the two on the wire. It is the device's own
	// copy: callers reuse one flow-mod across ops (probe.Engine's scratch),
	// so the caller's would read as the next op by the time it is flushed.
	held *openflow.FlowMod

	lateErrs *telemetry.Counter
}

var _ probe.FrameDevice = (*device)(nil)

// newDevice interposes inj and bg on sw. With neither — a nil injector (a
// disabled fault configuration) and no background, which includes the nil
// *ChurnDriver an empty schedule yields — it returns the bare device, so a
// clean run costs nothing.
func newDevice(sw *switchsim.Switch, inj *faults.Injector, bg Background) probe.FrameDevice {
	if cd, ok := bg.(*ChurnDriver); ok && cd == nil {
		bg = nil
	}
	dev := probe.SimDevice{S: sw}
	if inj == nil && bg == nil {
		return dev
	}
	d := &device{dev: dev, inj: inj, bg: bg}
	if inj != nil {
		d.lateErrs = telemetry.Default().Counter("faults.late_errors")
	}
	return d
}

// Now implements probe.Device. Reading the clock is not a foreground
// operation and does not advance the background; nor are Sleep and the label.
func (d *device) Now() time.Time { return d.dev.Now() }

// Sleep implements probe.Device.
func (d *device) Sleep(dur time.Duration) { d.dev.Sleep(dur) }

// TelemetryLabel implements probe.Device: an interposed switch keeps its name.
func (d *device) TelemetryLabel() string { return d.dev.TelemetryLabel() }

// begin runs at the entry of every foreground operation: it steps the
// background on the bare device and pops the reorder-deferred flow-mod, if
// any, which the operation flushes at exit (via flushHeld), so a held op
// applies after the operation that overtook it — never at the end of its own
// call.
func (d *device) begin() *openflow.FlowMod {
	if d.bg != nil {
		d.bg.Step(d.dev)
	}
	d.mu.Lock()
	fm := d.held
	d.held = nil
	d.mu.Unlock()
	return fm
}

// flushHeld applies a reorder-deferred flow-mod after the operation that
// overtook it. Its ack was already (optimistically) returned, so a late
// failure is invisible to the caller — it is only counted.
func (d *device) flushHeld(fm *openflow.FlowMod) {
	if fm == nil {
		return
	}
	if err := d.dev.FlowMod(fm); err != nil {
		d.lateErrs.Add(1)
	}
}

// FlowMod implements probe.Device with fault injection.
func (d *device) FlowMod(fm *openflow.FlowMod) error {
	defer d.flushHeld(d.begin())
	dec := d.inj.Decide()
	if !dec.Fire {
		return d.dev.FlowMod(fm)
	}
	switch dec.Kind {
	case faults.KindDrop:
		if dec.AckLoss {
			// The switch applied the op; only the confirmation vanished.
			if err := d.dev.FlowMod(fm); err != nil {
				d.lateErrs.Add(1)
			}
		}
		d.Sleep(d.inj.DropTimeout())
		return &faults.Error{Kind: faults.KindDrop, Op: "flowmod"}
	case faults.KindDelay:
		d.Sleep(dec.Delay)
		return d.dev.FlowMod(fm)
	case faults.KindDuplicate:
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
	case faults.KindReorder:
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
	case faults.KindReset:
		d.dev.S.Reset()
		return &faults.Error{Kind: faults.KindReset, Op: "flowmod"}
	case faults.KindOverflow:
		return &faults.Error{Kind: faults.KindOverflow, Op: "flowmod", Wrapped: switchsim.ErrTableFull}
	}
	return d.dev.FlowMod(fm)
}

// SendProbe implements probe.Device: an encoded packet is a one-packet burst
// of its decoding.
func (d *device) SendProbe(data []byte, inPort uint16) (time.Duration, bool, error) {
	var f packet.Frame
	if err := packet.DecodeInto(&f, data); err != nil {
		return 0, false, err
	}
	return d.SendFrameN(&f, inPort, len(data), 1)
}

// SendFrameN implements probe.FrameDevice with fault injection. A burst is
// one control-channel message, so it draws one fault decision; the typed
// error names it "probe" when it is one packet and "traffic" otherwise.
func (d *device) SendFrameN(f *packet.Frame, inPort uint16, size, n int) (time.Duration, bool, error) {
	defer d.flushHeld(d.begin())
	dec := d.inj.Decide()
	if !dec.Fire {
		return d.dev.SendFrameN(f, inPort, size, n)
	}
	op := "traffic"
	if n == 1 {
		op = "probe"
	}
	switch dec.Kind {
	case faults.KindDrop:
		if dec.AckLoss {
			// The frames traversed the switch (touching counters and cache
			// state); only the reflected copy was lost.
			if _, _, err := d.dev.SendFrameN(f, inPort, size, n); err != nil {
				d.lateErrs.Add(1)
			}
		}
		d.Sleep(d.inj.DropTimeout())
		return 0, false, &faults.Error{Kind: faults.KindDrop, Op: op}
	case faults.KindDelay:
		rtt, punted, err := d.dev.SendFrameN(f, inPort, size, n)
		if err != nil {
			return rtt, punted, err
		}
		d.Sleep(dec.Delay)
		return rtt + dec.Delay, punted, nil
	case faults.KindDuplicate:
		return d.dev.SendFrameN(f, inPort, size, n+1)
	case faults.KindReset:
		d.dev.S.Reset()
		return 0, false, &faults.Error{Kind: faults.KindReset, Op: op}
	}
	// Reorder and overflow have no data-plane analogue for a synchronous
	// send: deliver it untouched.
	return d.dev.SendFrameN(f, inPort, size, n)
}

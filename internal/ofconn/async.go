package ofconn

// async.go is the controller's flow-mod send path — the only one: FlowMod is
// a batch of one, FlowMods is FlowModBatch plus the first rejection. A window
// of ops and the barrier that confirms them are one exchange: numbered as one
// block, marshalled into one buffer and written once by the calling goroutine
// (Controller.write), so n ops cost ⌈n/window⌉ writes and round trips, where
// confirming each on its own (window 1, or FlowMod in a loop) costs n of
// both. The controller keeps nothing between calls: when FlowModBatch
// returns, no byte of it is buffered and no outcome of it is held.

import (
	"time"

	"tango/internal/openflow"
	"tango/internal/switchsim"
)

// asyncWindow is the default bound on how many flow-mods share one write and
// one trailing barrier, which also bounds how many ops a switch holds
// unconfirmed. ControllerOptions.AsyncWindow overrides it per connection;
// window 1 degenerates to serial (one barrier per op).
const asyncWindow = 64

// FlowMod sends the flow-mod with its own barrier and waits for it, so the
// operation is confirmed complete. A switch-side rejection surfaces as the
// *openflow.Error (table-full as switchsim.ErrTableFull). The flow-mod's XID
// is assigned by the controller.
func (c *Controller) FlowMod(fm *openflow.FlowMod) error {
	fms := [1]*openflow.FlowMod{fm}
	var errs [1]error
	if _, err := c.sendWindow(fms[:], errs[:], 0, 1); err != nil {
		return err
	}
	return errs[0]
}

// FlowMods sends a batch of flow-mods behind one trailing barrier per
// window — the batching shape real controllers (and the Tango scheduler)
// use, paying one round trip per window instead of per op. It returns the
// channel failure if there was one, otherwise the first switch-side
// rejection; later ops in the batch still execute (OpenFlow has no
// transactional abort). An empty batch is a bare barrier.
func (c *Controller) FlowMods(fms []*openflow.FlowMod) error {
	errs, err := c.FlowModBatch(fms)
	if err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// FlowModBatch applies the flow-mods in order, a window at a time, each
// window confirmed by its trailing barrier before the next is sent. It
// returns per-op outcomes: errs is nil when every op was accepted, and
// otherwise has len(fms), errs[i] nil when op i was accepted and
// switchsim.ErrTableFull or the switch's *openflow.Error when it was
// rejected. Later ops still execute after a rejection (OpenFlow has no
// transactional abort). The batch-level error reports channel failures only;
// on one, every op from the failed window on carries it and earlier windows
// keep their own outcomes. An empty batch is a bare barrier. fms are
// serialized before return, so the caller may reuse or mutate them. This
// method is the controller's implementation of the probe engine's
// PipelinedDevice contract.
func (c *Controller) FlowModBatch(fms []*openflow.FlowMod) (errs []error, err error) {
	for lo := 0; ; lo += c.window {
		hi := min(lo+c.window, len(fms))
		if errs, err = c.sendWindow(fms[lo:hi], errs, lo, len(fms)); err != nil {
			if errs == nil {
				errs = make([]error, len(fms))
			}
			for i := lo; i < len(errs); i++ {
				errs[i] = err
			}
			return errs, err
		}
		if hi == len(fms) { // also how an empty batch ends: after its bare barrier
			return errs, nil
		}
	}
}

// sendWindow is one flow-mod exchange: the ops and their barrier written
// together, then read until the barrier's reply. The read loop puts each
// rejection the switch sends into the op's slot of c.werrs, a buffer only
// the exchange holding c.mu touches; the agent writes an op's error before
// the barrier reply, so on success every rejection is there. sendWindow
// then moves them to errs[at:], making errs with one slot for each of the
// batch's total ops at the first rejection when it is nil, and returns it.
// On failure it returns errs as it was, and the caller overwrites the
// window.
func (c *Controller) sendWindow(fms []*openflow.FlowMod, errs []error, at, total int) ([]error, error) {
	submit := c.tel.stamp()
	c.mu.Lock()
	defer c.mu.Unlock()
	first, err := c.write(fms, barrierRequest)
	if err != nil {
		return errs, err
	}
	c.tel.asyncWrites.Add(1)
	c.tel.asyncQueued.Add(int64(len(fms)))
	if len(fms) > 0 { // a bare barrier flushes nothing
		c.tel.asyncFlushes.Add(1)
	}
	wrote := c.tel.stamp()
	if len(fms) > len(c.werrs) {
		c.werrs = make([]error, len(fms))
	}
	werrs := c.werrs[:len(fms)]
	defer clear(werrs)
	if err := c.readReply(first, werrs, false, nil); err != nil {
		return errs, err
	}
	for i, e := range werrs {
		if e != nil {
			if errs == nil {
				errs = make([]error, total)
			}
			errs[at+i] = e
		}
	}
	if !submit.IsZero() {
		c.tel.noteWindow(first, len(fms), submit, wrote, time.Now())
	}
	return errs, nil
}

// rejection maps a switch's error reply, decoded from frame into the
// controller's scratch, to the error the op reports: table-full as
// switchsim.ErrTableFull, anything else as a message of its own.
func rejection(oe *openflow.Error, frame []byte) error {
	if oe.IsTableFull() {
		return switchsim.ErrTableFull
	}
	return kept(frame).(*openflow.Error)
}

// noteWindow records a confirmed window's two segments: entry → bytes written
// (any wait for another caller's exchange, marshalling, the write itself —
// everything the controller adds) and bytes written → barrier reply (wire
// round trip plus switch processing).
func (t *ctrlTelemetry) noteWindow(first uint32, ops int, submit, wrote, resolved time.Time) {
	t.hSubmitEnqueue.Observe(float64(wrote.Sub(submit)))
	t.hWireBarrier.Observe(float64(resolved.Sub(wrote)))
	if t.tracer != nil {
		args := map[string]any{"xid": first, "ops": ops}
		t.tracer.Record("ofconn.op.enqueue", "ofconn.async", submit, wrote.Sub(submit), args)
		t.tracer.Record("ofconn.op.barrier", "ofconn.async", wrote, resolved.Sub(wrote), args)
	}
}

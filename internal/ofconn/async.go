package ofconn

// async.go is the controller's flow-mod send path — the only one: FlowMod is
// a batch of one, FlowMods is FlowModBatch plus the first rejection. A window
// of ops and the barrier that confirms them are one exchange: registered in
// one critical section, marshalled into one buffer and written once by the
// calling goroutine (Controller.write), so n ops cost ⌈n/window⌉ writes and
// round trips, where confirming each on its own (window 1, or FlowMod in a
// loop) costs n of both. The controller keeps nothing between calls: when
// FlowModBatch returns, no xid of its is registered and no byte is buffered.

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
	errs, err := c.FlowModBatch([]*openflow.FlowMod{fm})
	if err != nil {
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
// returns per-op outcomes: errs has len(fms) and errs[i] is nil when op i was
// accepted, switchsim.ErrTableFull or the switch's *openflow.Error when it
// was rejected. Later ops still execute after a rejection (OpenFlow has no
// transactional abort). The batch-level error reports channel failures only;
// on one, every op from the failed window on carries it and earlier windows
// keep their own outcomes. An empty batch is a bare barrier. fms are
// serialized before return, so the caller may reuse or mutate them. This
// method is the controller's implementation of the probe engine's
// PipelinedDevice contract.
func (c *Controller) FlowModBatch(fms []*openflow.FlowMod) ([]error, error) {
	errs := make([]error, len(fms))
	for lo := 0; ; lo += c.window {
		hi := min(lo+c.window, len(fms))
		if err := c.sendWindow(fms[lo:hi], errs[lo:hi]); err != nil {
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

// sendWindow is one flow-mod exchange: the ops and their barrier registered
// together, written together, and the barrier's reply awaited. While it waits
// the read token's holder — this caller or another — stores each rejection
// the switch sends into the op's slot of errs; the agent writes an op's error
// before the barrier reply, so on success every rejection is already there.
// On failure the slots may hold some — the deferred release is what makes
// them safe for the caller to overwrite.
func (c *Controller) sendWindow(fms []*openflow.FlowMod, errs []error) error {
	submit := c.tel.stamp()
	first, ch, err := c.register(errs)
	if err != nil {
		return err
	}
	defer c.release(first, len(errs)+1)
	if err := c.write(fms, first, &openflow.BarrierRequest{}); err != nil {
		return err
	}
	c.tel.asyncWrites.Add(1)
	c.tel.asyncQueued.Add(int64(len(fms)))
	if len(fms) > 0 { // a bare barrier flushes nothing
		c.tel.asyncFlushes.Add(1)
	}
	wrote := c.tel.stamp()
	if _, err := c.await(ch); err != nil {
		return err
	}
	if !submit.IsZero() {
		c.tel.noteWindow(first, len(fms), submit, wrote, time.Now())
	}
	return nil
}

// rejection maps a switch's error reply to the error the op reports.
func rejection(oe *openflow.Error) error {
	if oe.IsTableFull() {
		return switchsim.ErrTableFull
	}
	return oe
}

// noteWindow records a confirmed window's two segments: entry → bytes written
// (registration, marshalling, any wait for the write lock, the write itself —
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

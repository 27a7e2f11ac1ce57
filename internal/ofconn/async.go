package ofconn

// async.go is the controller's flow-mod send path — the only one: FlowMod
// is FlowModAsync plus Wait, FlowMods is FlowModBatch plus the first
// rejection, and no flow-mod byte reaches the connection except from the
// writer goroutine below. Encoded frames queue to that single writer, which
// coalesces every immediately available frame into one conn.Write, and a
// bounded window of ops shares one trailing barrier: n pipelined ops cost a
// handful of syscalls and one round trip, where confirming each on its own
// (window 1, or FlowMod in a loop) costs up to 2n and n.

import (
	"sync"
	"time"

	"tango/internal/openflow"
	"tango/internal/switchsim"
)

// asyncWindow is the default bound on how many flow-mods may be in flight —
// queued without a completed covering barrier. Issuing past the window
// flushes it first, so a runaway caller cannot build an unbounded backlog
// of unconfirmed ops. ControllerOptions.AsyncWindow overrides it per
// connection; window 1 degenerates to serial (one barrier per op).
const asyncWindow = 64

// wireFrame is one encoded message bound for the writer goroutine. A nil
// ack is fire-and-forget (flow-mods: their outcome arrives via the barrier
// protocol); barriers carry an ack so the flusher knows the bytes reached
// the wire — or didn't — before it starts awaiting the reply. cp, when
// non-nil, is the op's completion: the writer stamps its wire-write instant
// so the xid-level span segments can separate queueing delay from wire RTT.
type wireFrame struct {
	data []byte
	ack  chan error
	cp   *Completion
}

// asyncState is the controller's pipelining state. Its mutex is separate
// from Controller.mu (the xid table): the two are never held together.
type asyncState struct {
	mu sync.Mutex
	// window holds the issued-but-unflushed completions, in issue order. They
	// share one done channel, made with the window's first op: whichever
	// flush snapshots the window resolves them all and closes it once.
	window []*Completion
	// frame is where FlowModAsync marshals, so the frame handed to the writer
	// is one exact-size copy and not a slice grown from nil.
	frame []byte
	// queue feeds the writer goroutine, started lazily on first use.
	queue   chan wireFrame
	started bool
	closed  bool
	wg      sync.WaitGroup
}

// Completion is the handle for one asynchronous flow-mod. It resolves when
// a flush's trailing barrier covers the op. err is final once done — shared
// by every op of the window — is closed; before that readLoop may store the
// switch's rejection in it (under Controller.mu, while the op's xid is still
// registered) and the flush that resolves the window may overwrite it with
// the channel failure (after unregistering the xid under the same mutex).
type Completion struct {
	c    *Controller
	xid  uint32
	done chan struct{}
	err  error

	// Span timestamps, stamped only when telemetry is bound (zero
	// otherwise): submit at FlowModAsync entry, enqueued when the frame is
	// handed to the writer, wrote when its bytes hit the wire (stamped by
	// the writer goroutine; the flush's barrier ack orders that write
	// before any read here). Resolved into the
	// ofconn.controller.span.* histograms by flushWindow.
	submit   time.Time
	enqueued time.Time
	wrote    time.Time
}

// Wait blocks until a barrier covering the op has completed and returns the
// op's outcome: nil, switchsim.ErrTableFull, the switch's *openflow.Error,
// or the channel failure that sank the flush. If the op is still unflushed,
// Wait flushes the window itself.
func (cp *Completion) Wait() error {
	select {
	case <-cp.done:
		return cp.err
	default:
	}
	// Whoever snapshots the window containing this completion resolves it —
	// our flush, or a concurrent one that got there first. Either way done
	// closes, even on a dead connection (the flush then resolves everything
	// with the channel error).
	_, _ = cp.c.flushWindow()
	<-cp.done
	return cp.err
}

// Err returns the resolved outcome without blocking; ok reports whether the
// op has been covered by a barrier yet.
func (cp *Completion) Err() (err error, ok bool) {
	select {
	case <-cp.done:
		return cp.err, true
	default:
		return nil, false
	}
}

// FlowModAsync queues the flow-mod on the pipelined send path and returns
// its completion handle without waiting for the switch. fm is serialized
// before return, so the caller may immediately reuse or mutate it. The op
// is confirmed only when a trailing barrier covers it: Completion.Wait (or
// Flush) reports the outcome, mapping table-full rejections to
// switchsim.ErrTableFull. At most ControllerOptions.AsyncWindow ops may be
// outstanding; issuing past the window first flushes it, and a flush-level
// (channel) failure surfaces here with nothing left pending. Per-op
// rejections inside that forced flush do not surface here — they belong to
// their own completions.
func (c *Controller) FlowModAsync(fm *openflow.FlowMod) (*Completion, error) {
	spans := c.tel.spansEnabled()
	var submit time.Time
	if spans {
		submit = time.Now()
	}
	a := &c.async
	a.mu.Lock()
	full := len(a.window) >= c.window
	a.mu.Unlock()
	if full {
		if _, err := c.flushWindow(); err != nil {
			return nil, err
		}
	}
	cp := &Completion{c: c, submit: submit}
	xid, err := c.register(pendingReply{cp: cp})
	if err != nil {
		return nil, err
	}
	cp.xid = xid
	fm.SetXID(xid)
	a.mu.Lock()
	a.frame = fm.Marshal(a.frame[:0])
	if err := c.enqueueLocked(wireFrame{data: append([]byte(nil), a.frame...), cp: cp}); err != nil {
		a.mu.Unlock()
		c.unregister(xid)
		return nil, err
	}
	if spans {
		cp.enqueued = time.Now()
	}
	if len(a.window) == 0 {
		cp.done = make(chan struct{})
	} else {
		cp.done = a.window[0].done
	}
	a.window = append(a.window, cp)
	a.mu.Unlock()
	c.tel.asyncQueued.Add(1)
	return cp, nil
}

// Flush forces every queued flow-mod onto the wire, awaits one trailing
// barrier covering them, and resolves their completions. It returns the
// channel failure if the flush itself sank, otherwise the first switch-side
// rejection among the flushed ops (FlowMods' contract); use the individual
// completions to attribute rejections per op. With nothing in flight it is
// a no-op.
func (c *Controller) Flush() error {
	reject, err := c.flushWindow()
	if err != nil {
		return err
	}
	return reject
}

// flushWindow is the flush core. It snapshots and clears the window, sends
// one barrier through the queue (keeping wire order), awaits the reply, and
// resolves every snapshotted completion — on a failed flush, all of them
// with the failure, so no Wait can hang. err is the flush-level failure
// only; per-op rejections are reported via reject and the completions.
// Splitting the two keeps internal flushes (window pressure, the
// request/reply fence) from misattributing an earlier op's table-full to
// the current operation.
func (c *Controller) flushWindow() (reject, err error) {
	a := &c.async
	a.mu.Lock()
	window := a.window
	a.window = nil
	a.mu.Unlock()
	if len(window) == 0 {
		return nil, nil
	}
	c.tel.asyncFlushes.Add(1)
	ferr := c.barrierAsync()
	var resolve time.Time
	if ferr == nil && c.tel.spansEnabled() {
		// One stamp for the whole window: the trailing barrier resolved
		// every op at the same instant.
		resolve = time.Now()
	}
	// Releasing the xids under mu is also what makes the completions safe to
	// touch: readLoop stores a rejection only while it holds mu and finds the
	// xid registered. On a successful flush every rejection is already there
	// — the agent writes an op's error reply before the barrier reply.
	c.mu.Lock()
	for _, cp := range window {
		delete(c.pending, cp.xid)
	}
	c.mu.Unlock()
	for _, cp := range window {
		if !resolve.IsZero() {
			c.noteOpSpans(cp, resolve)
		}
		if ferr != nil {
			cp.err = ferr
		}
		if cp.err != nil && reject == nil {
			reject = cp.err
		}
	}
	close(window[0].done)
	return reject, ferr
}

// rejection maps a switch's error reply to the error the op reports.
func rejection(oe *openflow.Error) error {
	if oe.IsTableFull() {
		return switchsim.ErrTableFull
	}
	return oe
}

// noteOpSpans records one resolved op's xid-level segments: submit→enqueue
// (window admission, including any forced flush), enqueue→wire-write (the
// writer's queueing delay — the component that must never pollute a
// measurement probe's RTT), and wire-write→barrier-resolve (wire round trip
// plus switch processing). Only called on a successful flush, whose barrier
// ack ordered the writer's wrote stamp before this read; a zero wrote stamp
// (frame never written, e.g. enqueued after a poisoned write) skips the
// wire-relative segments.
func (c *Controller) noteOpSpans(cp *Completion, resolve time.Time) {
	if cp.submit.IsZero() {
		return
	}
	c.tel.hSubmitEnqueue.Observe(float64(cp.enqueued.Sub(cp.submit)))
	if cp.wrote.IsZero() {
		return
	}
	c.tel.hQueueWire.Observe(float64(cp.wrote.Sub(cp.enqueued)))
	c.tel.hWireBarrier.Observe(float64(resolve.Sub(cp.wrote)))
	if tr := c.tel.tracer; tr != nil {
		args := map[string]any{"xid": cp.xid}
		tr.Record("ofconn.op.enqueue", "ofconn.async", cp.submit, cp.enqueued.Sub(cp.submit), args)
		tr.Record("ofconn.op.queue", "ofconn.async", cp.enqueued, cp.wrote.Sub(cp.enqueued), args)
		tr.Record("ofconn.op.barrier", "ofconn.async", cp.wrote, resolve.Sub(cp.wrote), args)
	}
}

// barrierAsync sends a barrier through the writer queue — behind every
// already-queued frame — and awaits its reply. The ack round trip through
// the writer guarantees the barrier's bytes (and everything queued before
// it) reached the wire before the await starts.
func (c *Controller) barrierAsync() error {
	xid, ch, err := c.registerRequest()
	if err != nil {
		return err
	}
	bar := &openflow.BarrierRequest{Header: openflow.Header{Xid: xid}}
	ack := make(chan error, 1)
	c.async.mu.Lock()
	qerr := c.enqueueLocked(wireFrame{data: bar.Marshal(nil), ack: ack})
	c.async.mu.Unlock()
	if qerr != nil {
		c.unregister(xid)
		return qerr
	}
	if werr := <-ack; werr != nil {
		c.unregister(xid)
		return werr
	}
	if _, err := c.await(xid, ch); err != nil {
		c.unregister(xid)
		return err
	}
	return nil
}

// FlowModBatch applies the flow-mods in order over the pipelined path with
// a shared trailing barrier per window, returning per-op outcomes: errs has
// len(fms) and errs[i] is nil when op i was accepted. Later ops still
// execute after a rejection (OpenFlow has no transactional abort). The
// batch-level error reports channel failures only; on one, every op from
// the failure point on carries it. This method is the controller's
// implementation of the probe engine's PipelinedDevice contract.
func (c *Controller) FlowModBatch(fms []*openflow.FlowMod) ([]error, error) {
	errs := make([]error, len(fms))
	comps := make([]*Completion, len(fms))
	var cerr error
	for i, fm := range fms {
		cp, err := c.FlowModAsync(fm)
		if err != nil {
			for j := i; j < len(fms); j++ {
				errs[j] = err
			}
			cerr = err
			break
		}
		comps[i] = cp
	}
	if _, ferr := c.flushWindow(); ferr != nil && cerr == nil {
		cerr = ferr
	}
	for i, cp := range comps {
		if cp != nil {
			// Non-blocking in practice: the flush above resolved everything,
			// successfully or with the channel error.
			errs[i] = cp.Wait()
		}
	}
	return errs, cerr
}

// fence serialises the directly written request/reply exchanges (roundTrip)
// behind the pipelined flow-mods: any open window is flushed — completions
// resolved, barrier done — before a direct write may touch the connection,
// so a probe or stats request can never overtake a queued flow-mod. With no
// window open it costs one mutex probe and performs no writes. Per-op
// rejections stay with their completions and do not leak into the fencing
// op's result.
func (c *Controller) fence() error {
	c.async.mu.Lock()
	empty := len(c.async.window) == 0
	c.async.mu.Unlock()
	if empty {
		return nil
	}
	_, err := c.flushWindow()
	return err
}

// enqueueLocked hands a frame to the writer goroutine, starting it on first
// use. Callers hold async.mu, which makes the closed check and the channel
// send atomic with respect to shutdown. The send cannot block: the queue's
// capacity exceeds the window bound plus one barrier, and the writer drains
// independently of every lock.
func (c *Controller) enqueueLocked(f wireFrame) error {
	a := &c.async
	if a.closed {
		return ErrClosed
	}
	if !a.started {
		a.queue = make(chan wireFrame, 2*c.window+2)
		a.started = true
		a.wg.Add(1)
		go c.asyncWriter()
	}
	a.queue <- f
	return nil
}

// asyncWriter is the connection's single writer goroutine. It drains the
// frame queue, concatenating every immediately available frame into one
// conn.Write, and acknowledges barrier frames once their bytes are on the
// wire. After the first write error the pipe is poisoned: nothing further
// is written and every subsequent ack reports the error, so a barrier
// queued behind a failed op can never report success.
func (c *Controller) asyncWriter() {
	defer c.async.wg.Done()
	var (
		buf    []byte
		acks   []chan error
		cps    []*Completion
		sticky error
	)
	for f := range c.async.queue {
		buf = append(buf[:0], f.data...)
		acks = acks[:0]
		cps = cps[:0]
		frames := int64(1)
		if f.ack != nil {
			acks = append(acks, f.ack)
		}
		if f.cp != nil && !f.cp.submit.IsZero() {
			cps = append(cps, f.cp)
		}
	coalesce:
		for {
			select {
			case f2, ok := <-c.async.queue:
				if !ok {
					break coalesce
				}
				buf = append(buf, f2.data...)
				frames++
				if f2.ack != nil {
					acks = append(acks, f2.ack)
				}
				if f2.cp != nil && !f2.cp.submit.IsZero() {
					cps = append(cps, f2.cp)
				}
			default:
				break coalesce
			}
		}
		if sticky == nil {
			if _, err := c.conn.Write(buf); err != nil {
				sticky = err
			} else {
				c.tel.msgsOut.Add(frames)
				c.tel.asyncWrites.Add(1)
				if len(cps) > 0 {
					// One stamp per coalesced batch: every frame in it hit
					// the wire in the same syscall. Reads are ordered behind
					// this by the flush barrier's ack round trip.
					wrote := time.Now()
					for _, cp := range cps {
						cp.wrote = wrote
					}
				}
			}
		}
		for _, ach := range acks {
			ach <- sticky
		}
	}
}

// shutdownAsync stops the writer goroutine and fails all future enqueues.
// Queued frames are still drained (and their acks answered — with the write
// error the closed connection now produces), so no flusher hangs.
func (c *Controller) shutdownAsync() {
	a := &c.async
	a.mu.Lock()
	if !a.closed {
		a.closed = true
		if a.started {
			close(a.queue)
		}
	}
	a.mu.Unlock()
	a.wg.Wait()
}

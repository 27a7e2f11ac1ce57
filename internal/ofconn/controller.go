package ofconn

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"tango/internal/core/probe"
	"tango/internal/openflow"
	"tango/internal/telemetry"
)

// Controller is one controller-side OpenFlow connection to a switch. It is
// the probing engine's wire kind of device (probe.PipelinedDevice), so the
// same inference code runs against an in-process emulated switch or a live
// TCP endpoint.
type Controller struct {
	conn net.Conn

	mu      sync.Mutex
	nextXID uint32
	pending map[uint32]pendingReply
	readErr error
	closed  chan struct{}

	// sendMu serialises the directly written requests (send) and guards the
	// buffer they are marshalled into.
	sendMu  sync.Mutex
	sendBuf []byte

	// notify buffers unsolicited switch messages (FLOW_REMOVED,
	// PORT_STATUS, async PACKET_IN). When full, the oldest notification is
	// dropped — the controller favours liveness over completeness, like
	// every production controller's event queue.
	notify chan openflow.Message

	features *openflow.FeaturesReply
	timeout  time.Duration
	// window is the resolved async in-flight bound (ControllerOptions.
	// AsyncWindow, defaulted); immutable after construction.
	window int

	// async is the pipelined send path (FlowModAsync / Flush); see async.go.
	async asyncState

	tel ctrlTelemetry
}

var _ probe.PipelinedDevice = (*Controller)(nil)

// ControllerOptions configures DialOptions / NewControllerOptions.
type ControllerOptions struct {
	// Metrics receives the controller counters (ofconn.controller.msgs_in,
	// msgs_out, notify_dropped, stale_replies) and the handshake-latency
	// histogram. Nil falls back to the process default.
	Metrics *telemetry.Registry
	// Timeout bounds every await for a switch reply (barrier, probe,
	// echo, stats, handshake). Zero keeps the historical block-forever
	// behaviour; set it whenever the peer may lose messages (fault
	// injection, flaky networks) so drops surface as ErrTimeout instead
	// of hangs.
	Timeout time.Duration
	// AsyncWindow bounds how many pipelined flow-mods may be in flight
	// before FlowModAsync forces a flush (see async.go). Zero selects the
	// default (64); 1 degenerates to fully serial behaviour — every op is
	// confirmed by its own barrier before the next is issued — which the
	// fleet service and benchmarks use to measure pipelining wins.
	// Negative values are rejected by the constructors.
	AsyncWindow int
}

// ctrlTelemetry bundles the controller-side handles, resolved once at
// construction. All handles are nil-safe.
type ctrlTelemetry struct {
	tracer       *telemetry.Tracer
	msgsIn       *telemetry.Counter
	msgsOut      *telemetry.Counter
	notifyDrop   *telemetry.Counter
	staleReplies *telemetry.Counter
	asyncQueued  *telemetry.Counter
	asyncFlushes *telemetry.Counter
	asyncWrites  *telemetry.Counter
	hHandshake   *telemetry.Histogram

	// xid-level span segments of the pipelined send path (async.go). Each
	// async op is split so queueing delay is visible separately from wire
	// round trip — the separation that guards the serial-measurement-probe
	// invariant: measurement RTTs must never include time an op spent
	// waiting behind a window.
	hSubmitEnqueue *telemetry.Histogram // FlowModAsync entry → frame handed to writer
	hQueueWire     *telemetry.Histogram // writer queue wait → bytes on the wire
	hWireBarrier   *telemetry.Histogram // wire write → covering barrier resolved
}

func (t *ctrlTelemetry) init(opts ControllerOptions) {
	reg := opts.Metrics
	if reg == nil {
		reg = telemetry.Default()
	}
	// Lifecycle instants (ofconn.dial, ofconn.controller.close) go to the
	// process tracer.
	t.tracer = telemetry.DefaultTracer()
	t.msgsIn = reg.Counter("ofconn.controller.msgs_in")
	t.msgsOut = reg.Counter("ofconn.controller.msgs_out")
	t.notifyDrop = reg.Counter("ofconn.controller.notify_dropped")
	t.staleReplies = reg.Counter("ofconn.controller.stale_replies")
	t.asyncQueued = reg.Counter("ofconn.controller.async_queued")
	t.asyncFlushes = reg.Counter("ofconn.controller.async_flushes")
	t.asyncWrites = reg.Counter("ofconn.controller.async_writes")
	t.hHandshake = reg.Histogram("ofconn.controller.handshake_ns")
	t.hSubmitEnqueue = reg.Histogram("ofconn.controller.span.submit_enqueue_ns")
	t.hQueueWire = reg.Histogram("ofconn.controller.span.queue_wire_ns")
	t.hWireBarrier = reg.Histogram("ofconn.controller.span.wire_barrier_ns")
}

// spansEnabled reports whether per-op timestamping is worth the time.Now
// calls: false exactly when no registry and no tracer is bound, keeping the
// uninstrumented async path free of clock reads.
func (t *ctrlTelemetry) spansEnabled() bool {
	return t.hSubmitEnqueue != nil || t.tracer != nil
}

// ErrClosed is returned for operations on a closed controller connection.
var ErrClosed = errors.New("ofconn: connection closed")

// timeoutError is the concrete type behind ErrTimeout. It carries the
// Timeout/Transient markers (net.Error convention and the probe engine's
// retry classifier, respectively): a reply that never came is worth
// retrying, unlike a closed connection.
type timeoutError struct{}

func (timeoutError) Error() string   { return "ofconn: timed out awaiting switch reply" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Transient() bool { return true }

// ErrTimeout is returned when ControllerOptions.Timeout elapses before the
// switch replies. Match it with errors.Is.
var ErrTimeout error = timeoutError{}

// Dial connects to an OpenFlow switch at addr, performs the HELLO and
// FEATURES handshake, and returns a ready controller.
func Dial(addr string) (*Controller, error) {
	return DialOptions(addr, ControllerOptions{})
}

// DialOptions is Dial with explicit telemetry bindings.
func DialOptions(addr string, opts ControllerOptions) (*Controller, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewControllerOptions(conn, opts)
}

// NewController wraps an established connection (also used in tests over
// net.Pipe) and performs the handshake.
func NewController(conn net.Conn) (*Controller, error) {
	return NewControllerOptions(conn, ControllerOptions{})
}

// NewControllerOptions is NewController with explicit telemetry bindings.
func NewControllerOptions(conn net.Conn, opts ControllerOptions) (*Controller, error) {
	if opts.AsyncWindow < 0 {
		conn.Close()
		return nil, fmt.Errorf("ofconn: AsyncWindow %d is negative", opts.AsyncWindow)
	}
	window := opts.AsyncWindow
	if window == 0 {
		window = asyncWindow
	}
	c := &Controller{
		conn:    conn,
		pending: make(map[uint32]pendingReply),
		closed:  make(chan struct{}),
		notify:  make(chan openflow.Message, 256),
		timeout: opts.Timeout,
		window:  window,
	}
	c.tel.init(opts)
	c.tel.tracer.Instant("ofconn.dial", "", map[string]any{"remote": conn.RemoteAddr().String()})
	go c.readLoop()
	start := time.Now()
	if err := c.handshake(); err != nil {
		c.Close()
		return nil, err
	}
	// Handshake latency is wall time: this path talks to a real socket.
	c.tel.hHandshake.Observe(float64(time.Since(start)))
	return c, nil
}

// pendingReply is one xid-table entry: where readLoop routes the message
// that answers the xid. Exactly one field is set. A request/reply exchange
// (roundTrip, the flush barrier) waits on ch. A pipelined flow-mod has nobody
// waiting — its only possible answer is a rejection — so its entry points at
// the op's Completion and readLoop stores the rejection there.
type pendingReply struct {
	ch chan openflow.Message
	cp *Completion
}

func (c *Controller) readLoop() {
	rd := openflow.NewReader(c.conn)
	for {
		msg, err := rd.ReadMessage()
		if err != nil {
			c.mu.Lock()
			c.readErr = err
			for xid, p := range c.pending {
				if p.ch != nil {
					close(p.ch)
				}
				delete(c.pending, xid)
			}
			c.mu.Unlock()
			close(c.closed)
			return
		}
		c.tel.msgsIn.Add(1)
		if msg.Type() == openflow.TypeHello {
			continue // connection-opening pleasantry, not awaited
		}
		c.mu.Lock()
		p, ok := c.pending[msg.XID()]
		if ok {
			delete(c.pending, msg.XID())
			if oe, isErr := msg.(*openflow.Error); isErr && p.cp != nil {
				// Stored under mu, which flushWindow takes (to unregister the
				// xid) before it reads the completion: the write is ordered
				// before that read whether the flush succeeded — the barrier
				// reply follows this message on the wire — or timed out.
				p.cp.err = rejection(oe)
			}
		}
		c.mu.Unlock()
		switch {
		case p.ch != nil:
			p.ch <- msg
		case ok:
			// A flow-mod's answer, recorded above.
		case solicitedOnly(msg.Type()):
			// The reply to an exchange that gave up waiting (await timed out
			// and released the xid). Nobody asked for it any more, and it is
			// not something the switch volunteered.
			c.tel.staleReplies.Add(1)
		default:
			c.notifyUnsolicited(msg)
		}
	}
}

// solicitedOnly reports whether a message of type t can only be the answer
// to a request, never something a switch sends of its own accord.
func solicitedOnly(t openflow.MsgType) bool {
	switch t {
	case openflow.TypeBarrierReply, openflow.TypeEchoReply, openflow.TypeStatsReply,
		openflow.TypeFeaturesReply, openflow.TypeGetConfigReply:
		return true
	}
	return false
}

// notifyUnsolicited queues a message the switch sent unprompted (PACKET_IN,
// FLOW_REMOVED, PORT_STATUS, ERROR); the oldest is dropped when full.
func (c *Controller) notifyUnsolicited(msg openflow.Message) {
	for {
		select {
		case c.notify <- msg:
			return
		default:
		}
		select {
		case <-c.notify:
			c.tel.notifyDrop.Add(1)
		default:
		}
	}
}

// Notifications returns the stream of unsolicited switch messages.
func (c *Controller) Notifications() <-chan openflow.Message { return c.notify }

// register allocates an xid and routes its answer to p.
func (c *Controller) register(p pendingReply) (uint32, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.readErr != nil {
		return 0, ErrClosed
	}
	c.nextXID++
	c.pending[c.nextXID] = p
	return c.nextXID, nil
}

// registerRequest is register for a request/reply exchange: the answer
// arrives on the returned 1-buffered channel.
func (c *Controller) registerRequest() (uint32, chan openflow.Message, error) {
	ch := make(chan openflow.Message, 1)
	xid, err := c.register(pendingReply{ch: ch})
	return xid, ch, err
}

// unregister abandons a pending xid (used when no reply is expected after
// all, e.g. a flow-mod that succeeded silently).
func (c *Controller) unregister(xid uint32) {
	c.mu.Lock()
	delete(c.pending, xid)
	c.mu.Unlock()
}

// send marshals m into the controller's send buffer and writes it as one
// frame.
func (c *Controller) send(m openflow.Message) error {
	c.sendMu.Lock()
	c.sendBuf = m.Marshal(c.sendBuf[:0])
	_, err := c.conn.Write(c.sendBuf)
	c.sendMu.Unlock()
	if err != nil {
		return err
	}
	c.tel.msgsOut.Add(1)
	return nil
}

// await blocks for the reply to xid on ch, bounded by the configured
// timeout (when set). On timeout the xid is unregistered. A straggler that
// readLoop had already matched lands in the 1-buffered channel and is
// garbage-collected with it; one that arrives after the unregister finds no
// entry and is dropped as a stale reply (see readLoop).
func (c *Controller) await(xid uint32, ch chan openflow.Message) (openflow.Message, error) {
	if c.timeout <= 0 {
		msg, ok := <-ch
		if !ok {
			return nil, ErrClosed
		}
		return msg, nil
	}
	t := time.NewTimer(c.timeout)
	defer t.Stop()
	select {
	case msg, ok := <-ch:
		if !ok {
			return nil, ErrClosed
		}
		return msg, nil
	case <-t.C:
		c.unregister(xid)
		return nil, ErrTimeout
	}
}

// request is a message the controller assigns the transaction ID of.
type request interface {
	openflow.Message
	SetXID(uint32)
}

// roundTrip is the one request/reply exchange every non-flow-mod operation
// goes through: register an xid, write req, await the reply to it. rtt runs
// from just before the write to the reply's arrival. The request is written
// directly, not through the writer goroutine — a probe's RTT must not
// include a queue hand-off — so any open pipelined window is fenced first,
// which costs nothing when none is open. A failed write releases the xid; a
// failed await already has (timeout) or found the table emptied (close).
func (c *Controller) roundTrip(req request) (reply openflow.Message, rtt time.Duration, _ error) {
	if err := c.fence(); err != nil {
		return nil, 0, err
	}
	xid, ch, err := c.registerRequest()
	if err != nil {
		return nil, 0, err
	}
	req.SetXID(xid)
	start := time.Now()
	if err := c.send(req); err != nil {
		// A leaked entry stays in pending forever and misroutes a late
		// reply that happens to reuse the XID after wraparound.
		c.unregister(xid)
		return nil, 0, err
	}
	reply, err = c.await(xid, ch)
	if err != nil {
		return nil, 0, err
	}
	return reply, time.Since(start), nil
}

func (c *Controller) handshake() error {
	if err := c.send(&openflow.Hello{}); err != nil {
		return err
	}
	msg, _, err := c.roundTrip(&openflow.FeaturesRequest{})
	if err != nil {
		return err
	}
	fr, ok := msg.(*openflow.FeaturesReply)
	if !ok {
		return fmt.Errorf("ofconn: handshake got %v, want FEATURES_REPLY", msg.Type())
	}
	c.features = fr
	return nil
}

// Features returns the switch's features reply from the handshake.
func (c *Controller) Features() *openflow.FeaturesReply { return c.features }

// TelemetryLabel implements probe.Device with the switch's datapath ID, so
// engines over a live channel auto-bind a per-switch histogram child and
// flight-recorder track just like emulated devices do. Fleets override it
// afterwards with their member names via SetLabel.
func (c *Controller) TelemetryLabel() string {
	return fmt.Sprintf("dpid-%#x", c.features.DatapathID)
}

// FlowMod issues the flow-mod on the pipelined path and waits for the
// barrier that covers it, so the operation is confirmed complete. A
// switch-side rejection surfaces as the *openflow.Error (table-full as
// switchsim.ErrTableFull). Ops still unflushed from earlier FlowModAsync
// calls ride the same barrier; their rejections stay with their own
// completions. The flow-mod's XID is assigned by the controller.
func (c *Controller) FlowMod(fm *openflow.FlowMod) error {
	cp, err := c.FlowModAsync(fm)
	if err != nil {
		return err
	}
	return cp.Wait()
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
	if len(fms) == 0 {
		return c.barrierAsync()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// SendProbe injects a probe frame via PACKET_OUT and measures the wall-time
// until the reflected PACKET_IN returns. punted reports whether the switch
// punted the frame (NO_MATCH) rather than forwarding it.
func (c *Controller) SendProbe(data []byte, inPort uint16) (rtt time.Duration, punted bool, err error) {
	msg, rtt, err := c.roundTrip(&openflow.PacketOut{BufferID: 0xffffffff, InPort: inPort, Data: data})
	if err != nil {
		return 0, false, err
	}
	pin, ok := msg.(*openflow.PacketIn)
	if !ok {
		return 0, false, fmt.Errorf("ofconn: probe got %v, want PACKET_IN", msg.Type())
	}
	return rtt, pin.Reason == openflow.ReasonNoMatch, nil
}

// Echo measures a control-channel round trip.
func (c *Controller) Echo() (time.Duration, error) {
	_, rtt, err := c.roundTrip(&openflow.EchoRequest{Data: []byte("tango")})
	return rtt, err
}

// stats runs one stats request and narrows the reply.
func (c *Controller) stats(req *openflow.StatsRequest) (*openflow.StatsReply, error) {
	msg, _, err := c.roundTrip(req)
	if err != nil {
		return nil, err
	}
	sr, ok := msg.(*openflow.StatsReply)
	if !ok {
		return nil, fmt.Errorf("ofconn: got %v, want STATS_REPLY", msg.Type())
	}
	return sr, nil
}

// TableStats fetches the switch's table statistics.
func (c *Controller) TableStats() ([]openflow.TableStats, error) {
	sr, err := c.stats(&openflow.StatsRequest{StatsType: openflow.StatsTypeTable})
	if err != nil {
		return nil, err
	}
	return sr.Tables, nil
}

// FlowStats fetches flow statistics for all rules.
func (c *Controller) FlowStats() ([]openflow.FlowStats, error) {
	sr, err := c.stats(&openflow.StatsRequest{
		StatsType:   openflow.StatsTypeFlow,
		FlowTableID: 0xff,
		FlowOutPort: openflow.PortNone,
	})
	if err != nil {
		return nil, err
	}
	return sr.Flows, nil
}

// Now returns the wall-clock time; with a TCP device, probing measures real
// elapsed time.
func (c *Controller) Now() time.Time { return time.Now() }

// Sleep implements probe.Device by blocking for d of wall time, mirroring
// SimDevice.Sleep on the virtual-time path.
func (c *Controller) Sleep(d time.Duration) { time.Sleep(d) }

// Close tears down the connection. Unflushed pipelined ops are abandoned:
// their completions resolve with an error on the next Wait or Flush, never
// with success.
func (c *Controller) Close() error {
	c.tel.tracer.Instant("ofconn.controller.close", "", nil)
	err := c.conn.Close()
	c.shutdownAsync()
	return err
}

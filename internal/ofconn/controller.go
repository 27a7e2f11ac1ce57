package ofconn

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"tango/internal/core/probe"
	"tango/internal/openflow"
	"tango/internal/simclock"
	"tango/internal/telemetry"
)

// Controller is one controller-side OpenFlow connection to a switch. It is
// the probing engine's wire kind of device (probe.PipelinedDevice), so the
// same inference code runs against an in-process emulated switch or a live
// TCP endpoint. Its methods may be called from several goroutines: each call
// writes its own exchange on the calling goroutine and waits for its own
// reply, and the controller keeps nothing of a call that has returned. It owns
// no goroutine: a caller awaiting a reply reads the connection itself while it
// holds the read token (see await), so nothing is read between exchanges.
type Controller struct {
	conn net.Conn

	// rd is the controller's one frame reader, used only by the holder of
	// the read token; readTok holds that token while nobody reads.
	rd      *openflow.Reader
	readTok chan struct{}

	// mu guards the xid table. nextXID is the last xid handed out. readErr is
	// the fatal read error or ErrClosed; once set, no xid is handed out.
	mu      sync.Mutex
	nextXID uint32
	pending map[uint32]pendingReply
	readErr error

	// wmu is the write lock: it orders whole exchanges on the wire and guards
	// the one buffer they are marshalled into (see write). werr is the first
	// write failure; once set, nothing more is written.
	wmu  sync.Mutex
	wbuf []byte
	werr error

	// notify buffers unsolicited switch messages (FLOW_REMOVED,
	// PORT_STATUS, async PACKET_IN). When full, the oldest notification is
	// dropped — the controller favours liveness over completeness, like
	// every production controller's event queue.
	notify chan openflow.Message

	features *openflow.FeaturesReply
	timeout  time.Duration
	// clock is what Now, Sleep and a round trip's RTT read: the wall clock,
	// unless a test puts the controller on its switch's virtual clock. Reply
	// deadlines stay on socket time.
	clock simclock.Clock
	// window is the resolved bound on flow-mods per barrier (ControllerOptions.
	// AsyncWindow, defaulted); immutable after construction.
	window int

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
	// AsyncWindow bounds how many flow-mods of a batch share one write and
	// one trailing barrier (see async.go). Zero selects the default (64); 1
	// degenerates to fully serial behaviour — every op is confirmed by its
	// own barrier before the next is issued — which the fleet service and
	// benchmarks use to measure pipelining wins. Negative values are
	// rejected by the constructors.
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

	// The two segments of a flow-mod window (async.go), split at the write so
	// what the controller spends before the bytes leave is visible apart from
	// the wire round trip.
	hSubmitEnqueue *telemetry.Histogram // window entry → its bytes written
	hWireBarrier   *telemetry.Histogram // bytes written → barrier reply
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
	t.hWireBarrier = reg.Histogram("ofconn.controller.span.wire_barrier_ns")
}

// stamp reads the clock for a window's span segments only when a registry or
// a tracer is bound to receive them; the uninstrumented flow-mod path makes
// no clock reads.
func (t *ctrlTelemetry) stamp() time.Time {
	if t.hSubmitEnqueue == nil && t.tracer == nil {
		return time.Time{}
	}
	return time.Now()
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

// DialOptions connects to an OpenFlow switch at addr, performs the HELLO
// and FEATURES handshake, and returns a ready controller.
func DialOptions(addr string, opts ControllerOptions) (*Controller, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewControllerOptions(conn, opts)
}

// NewControllerOptions wraps an established connection (also used in tests
// over net.Pipe) and performs the handshake. The controller reads only while
// it awaits a reply, so it writes its HELLO before reading the switch's: a
// peer that also writes first (the agent loop does) needs a transport that
// buffers, as TCP does — over an unbuffered net.Pipe it must read first.
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
		rd:      openflow.NewReader(conn),
		readTok: make(chan struct{}, 1),
		pending: make(map[uint32]pendingReply),
		notify:  make(chan openflow.Message, 256),
		timeout: opts.Timeout,
		window:  window,
		clock:   wallClock,
	}
	c.readTok <- struct{}{}
	c.tel.init(opts)
	c.tel.tracer.Instant("ofconn.dial", "", map[string]any{"remote": conn.RemoteAddr().String()})
	start := time.Now()
	if err := c.handshake(); err != nil {
		c.Close()
		return nil, err
	}
	// Handshake latency is wall time: this path talks to a real socket.
	c.tel.hHandshake.Observe(float64(time.Since(start)))
	return c, nil
}

// wallClock is every controller's measurement clock outside tests.
var wallClock simclock.Clock = &simclock.Real{}

// pendingReply is one xid-table entry: where route delivers the message
// that answers the xid. Exactly one field is set. The message that closes an
// exchange (a request, a window's barrier) has its reply awaited on ch. A
// flow-mod has nobody waiting — its only possible answer is a rejection — so
// its entry points at the op's slot of the errs its FlowModBatch returns and
// route stores the rejection there.
type pendingReply struct {
	ch   chan openflow.Message
	errp *error
}

// route delivers one message the token holder read: an awaited reply into
// its exchange's 1-buffered channel (the holder's own or another caller's), a
// rejection into its op's slot, a stale reply to the counter and anything
// the switch volunteered to Notifications().
func (c *Controller) route(msg openflow.Message) {
	c.tel.msgsIn.Add(1)
	if msg.Type() == openflow.TypeHello {
		return // connection-opening pleasantry, not awaited
	}
	c.mu.Lock()
	p, ok := c.pending[msg.XID()]
	if ok {
		delete(c.pending, msg.XID())
		if oe, isErr := msg.(*openflow.Error); isErr && p.errp != nil {
			// Stored under mu, which the window's sender takes (to release
			// its xids) before it reads or overwrites the slot: the store
			// is ordered before that whether the barrier was answered —
			// its reply follows this message on the wire — or timed out.
			*p.errp = rejection(oe)
		}
	}
	c.mu.Unlock()
	switch {
	case p.ch != nil:
		p.ch <- msg // never blocks: the entry is gone, so ch gets one message
	case ok:
		// A flow-mod's answer, recorded above.
	case solicitedOnly(msg.Type()):
		// The reply to an exchange that gave up waiting (await timed out
		// and the xid was released). Nobody asked for it any more, and it
		// is not something the switch volunteered.
		c.tel.staleReplies.Add(1)
	default:
		c.notifyUnsolicited(msg)
	}
}

// fail ends the connection's read side: it records err (unless an earlier
// failure or Close did) so register hands out no more xids, and closes every
// awaited channel so each waiter returns ErrClosed — never a hang, never
// success. A channel route has delivered to has left the table first, so
// nothing is sent on a closed channel.
func (c *Controller) fail(err error) {
	c.mu.Lock()
	if c.readErr == nil {
		c.readErr = err
	}
	for xid, p := range c.pending {
		if p.ch != nil {
			close(p.ch)
		}
		delete(c.pending, xid)
	}
	c.mu.Unlock()
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

// Notifications returns the stream of unsolicited switch messages. The
// controller reads the connection only while an exchange awaits its reply,
// so a message the switch volunteers between exchanges waits in the socket
// until the next one; it is queued here before that exchange returns.
func (c *Controller) Notifications() <-chan openflow.Message { return c.notify }

// register reserves len(errs)+1 consecutive xids in one critical section:
// one per flow-mod, its entry pointing at the op's slot of errs, then one for
// the message that closes the exchange, whose reply arrives on the returned
// 1-buffered channel. No xid is 0 — switches send what they volunteer
// (FLOW_REMOVED, PORT_STATUS) with xid 0 — and none is still in the table,
// which the 32-bit counter would otherwise revisit on a long-lived connection.
func (c *Controller) register(errs []error) (first uint32, ch chan openflow.Message, err error) {
	ch = make(chan openflow.Message, 1)
	n := uint32(len(errs)) + 1
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.readErr != nil {
		return 0, nil, ErrClosed
	}
	first = c.nextXID + 1
	for i := uint32(0); i < n; {
		x := first + i
		if _, busy := c.pending[x]; busy || x == 0 {
			first, i = x+1, 0 // restart the block past the obstacle
			continue
		}
		i++
	}
	c.nextXID = first + n - 1
	for i := range errs {
		c.pending[first+uint32(i)] = pendingReply{errp: &errs[i]}
	}
	c.pending[c.nextXID] = pendingReply{ch: ch}
	return first, ch, nil
}

// release drops the n xids from first that are still registered. Every
// exchange defers it, so no path — write failure, timeout, close, success —
// leaves an entry behind to misroute a later reply.
func (c *Controller) release(first uint32, n int) {
	c.mu.Lock()
	for i := 0; i < n; i++ {
		delete(c.pending, first+uint32(i))
	}
	c.mu.Unlock()
}

// request is a message the controller assigns the transaction ID of.
type request interface {
	openflow.Message
	SetXID(uint32)
}

// write is the only place bytes reach the connection: the calling goroutine
// numbers one whole exchange from first — the flow-mods, then the message
// that closes it — marshals it into the controller's one buffer and writes it
// once, all under the write lock, so exchanges never interleave on the wire
// and a window's barrier directly follows its ops. Nothing stays buffered
// when it returns. A failed write may have been partial, and the stream
// cannot resume mid-frame: the failure is kept and every later write reports
// it without touching the connection.
func (c *Controller) write(fms []*openflow.FlowMod, first uint32, last request) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.werr != nil {
		return c.werr
	}
	buf := c.wbuf[:0]
	for i, fm := range fms {
		fm.SetXID(first + uint32(i))
		buf = fm.Marshal(buf)
	}
	last.SetXID(first + uint32(len(fms)))
	buf = last.Marshal(buf)
	c.wbuf = buf
	if _, err := c.conn.Write(buf); err != nil {
		c.werr = err
		return err
	}
	c.tel.msgsOut.Add(int64(len(fms) + 1))
	return nil
}

// await blocks for the reply on ch, bounded by the configured timeout (when
// set). No goroutine reads for it: the caller waits for whichever comes
// first — its reply, which another caller read and routed, the read token,
// or its timer — and with the token it reads the connection itself
// (readUntil), then hands the token back. The caller releases the xid. A
// straggler already routed lands in the 1-buffered channel and is
// garbage-collected with it; one read after the release finds no entry and
// is dropped as a stale reply (see route).
func (c *Controller) await(ch chan openflow.Message) (openflow.Message, error) {
	var deadline time.Time
	var expired <-chan time.Time
	if c.timeout > 0 {
		deadline = time.Now().Add(c.timeout)
		t := time.NewTimer(c.timeout)
		defer t.Stop()
		expired = t.C
	}
	select {
	case msg, ok := <-ch:
		return delivered(msg, ok)
	case <-c.readTok:
		msg, err := c.readUntil(ch, deadline)
		c.readTok <- struct{}{}
		return msg, err
	case <-expired:
		return nil, ErrTimeout
	}
}

// readUntil is the token holder's read loop: it reads and routes frames
// until ch has its reply. A zero deadline reads without one. A deadline that
// passes is ErrTimeout and leaves the connection usable — a frame cut short
// stays in the reader's buffer for the next holder to finish. Any other read
// error is fatal: fail wakes every waiter, the holder included.
func (c *Controller) readUntil(ch chan openflow.Message, deadline time.Time) (openflow.Message, error) {
	if !deadline.IsZero() {
		// An error here means the connection is gone; the read reports it.
		_ = c.conn.SetReadDeadline(deadline)
	}
	for {
		select {
		case msg, ok := <-ch:
			return delivered(msg, ok)
		default:
		}
		msg, err := c.rd.ReadMessage()
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				return nil, ErrTimeout
			}
			c.fail(err)
			return nil, ErrClosed
		}
		c.route(msg)
	}
}

// delivered is what a receive from an exchange's channel means: its reply,
// or — closed by fail — ErrClosed.
func delivered(msg openflow.Message, ok bool) (openflow.Message, error) {
	if !ok {
		return nil, ErrClosed
	}
	return msg, nil
}

// roundTrip is the one request/reply exchange every non-flow-mod operation
// goes through: register an xid, write req, await the reply to it. rtt runs
// from just before the write to the reply's arrival, on the controller's
// measurement clock; a serial caller makes both the write and the read on
// this goroutine, so it holds no hand-off.
func (c *Controller) roundTrip(req request) (reply openflow.Message, rtt time.Duration, _ error) {
	xid, ch, err := c.register(nil)
	if err != nil {
		return nil, 0, err
	}
	defer c.release(xid, 1)
	start := c.clock.Now()
	if err := c.write(nil, xid, req); err != nil {
		return nil, 0, err
	}
	reply, err = c.await(ch)
	if err != nil {
		return nil, 0, err
	}
	return reply, c.clock.Now().Sub(start), nil
}

func (c *Controller) handshake() error {
	if err := c.write(nil, 0, &openflow.Hello{}); err != nil {
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

// Now returns the time on the clock RTTs are measured against: wall time, so
// probing over a live channel measures real elapsed time.
func (c *Controller) Now() time.Time { return c.clock.Now() }

// Sleep implements probe.Device by charging d to that clock — blocking for
// d of wall time — mirroring SimDevice.Sleep on the virtual-time path.
func (c *Controller) Sleep(d time.Duration) { c.clock.Sleep(d) }

// Close tears down the connection and records ErrClosed, so every exchange
// still awaiting a reply — the token holder's read fails too — returns
// ErrClosed, never a hang, never success, and no later call registers.
func (c *Controller) Close() error {
	c.tel.tracer.Instant("ofconn.controller.close", "", nil)
	err := c.conn.Close()
	c.fail(ErrClosed)
	return err
}

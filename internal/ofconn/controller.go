package ofconn

import (
	"encoding/binary"
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

	// rd is the controller's one frame reader and dec the decoder its frames
	// go through, both used only by the holder of the read token; readTok
	// holds that token while nobody reads.
	rd      *openflow.Reader
	dec     openflow.Decoder
	readTok chan struct{}

	// mu guards the xid table and spare. nextXID is the last xid handed out.
	// spare holds reply channels whose exchange got its reply, for the next
	// exchanges to reuse. readErr is the fatal read error or ErrClosed; once
	// set, no xid is handed out.
	mu      sync.Mutex
	nextXID uint32
	pending map[uint32]pendingReply
	spare   []chan openflow.Message
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

// pendingReply is one xid-table entry. The message that closes an exchange
// (a request, a window's barrier) has its reply awaited on ch. A flow-mod has
// nobody waiting — its only possible answer is a rejection — so route stores
// the rejection in err, where the window's sender collects it when it
// releases the xids.
type pendingReply struct {
	ch  chan openflow.Message
	err error
}

// route delivers one message the token holder read and decoded into its
// scratch, and reports whether it is the reply the holder's own exchange
// awaits on own, which the holder takes where it lies. Anything that outlives
// the read is decoded again from frame into a message of its own: another
// caller's reply, which goes into that exchange's 1-buffered channel, a
// rejection that is not table-full, which goes into its op's entry, and
// anything the switch volunteered, which goes to Notifications(). A stale
// reply is only counted.
func (c *Controller) route(msg openflow.Message, frame []byte, own chan openflow.Message) bool {
	c.tel.msgsIn.Add(1)
	if msg.Type() == openflow.TypeHello {
		return false // connection-opening pleasantry, not awaited
	}
	c.mu.Lock()
	p, ok := c.pending[msg.XID()]
	switch {
	case !ok:
	case p.ch != nil:
		delete(c.pending, msg.XID())
	case p.err != nil:
		ok = false // the op's answer came already: this one is a duplicate
	default:
		if oe, isErr := msg.(*openflow.Error); isErr {
			// Stored under mu, which the window's sender takes to collect it:
			// the store is ordered before that whether the barrier was
			// answered — its reply follows this message on the wire — or
			// timed out.
			p.err = rejection(oe, frame)
			c.pending[msg.XID()] = p
		}
	}
	c.mu.Unlock()
	switch {
	case ok && p.ch == own:
		return true
	case ok && p.ch != nil:
		p.ch <- kept(frame) // never blocks: the entry is gone, so ch gets one message
	case ok:
		// A flow-mod's answer, recorded above.
	case solicitedOnly(msg.Type()):
		// The reply to an exchange that gave up waiting (await timed out
		// and the xid was released). Nobody asked for it any more, and it
		// is not something the switch volunteered.
		c.tel.staleReplies.Add(1)
	default:
		c.notifyUnsolicited(kept(frame))
	}
	return false
}

// kept decodes a frame the token holder has already decoded once into a
// message of its own, which outlives the next read.
func kept(frame []byte) openflow.Message {
	msg, _ := openflow.Decode(frame) // cannot fail: it decoded before
	return msg
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

// register reserves ops+1 consecutive xids in one critical section: one per
// flow-mod, then one for the message that closes the exchange, whose reply
// arrives on the returned 1-buffered channel — a spare one when there is one.
// No xid is 0 — switches send what they volunteer (FLOW_REMOVED, PORT_STATUS)
// with xid 0 — and none is still in the table, which the 32-bit counter would
// otherwise revisit on a long-lived connection.
func (c *Controller) register(ops int) (first uint32, ch chan openflow.Message, err error) {
	n := uint32(ops) + 1
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
	for i := uint32(0); i < n-1; i++ {
		c.pending[first+i] = pendingReply{}
	}
	if k := len(c.spare); k > 0 {
		ch, c.spare = c.spare[k-1], c.spare[:k-1]
	} else {
		ch = make(chan openflow.Message, 1)
	}
	c.pending[c.nextXID] = pendingReply{ch: ch}
	return first, ch, nil
}

// release ends an exchange registered from first with len(errs) flow-mods:
// it collects each op's rejection into errs and drops every xid still
// registered. Every exchange defers it, so no path — write failure, timeout,
// close, success — leaves an entry behind to misroute a later reply. ch goes
// back to spare only when replied says the exchange took its reply, so it is
// empty and nobody holds it; a channel that timed out may yet receive a
// straggler, and is left to the collector.
func (c *Controller) release(first uint32, errs []error, ch chan openflow.Message, replied bool) {
	c.mu.Lock()
	for i := range errs {
		x := first + uint32(i)
		errs[i] = c.pending[x].err
		delete(c.pending, x)
	}
	delete(c.pending, first+uint32(len(errs)))
	if replied {
		c.spare = append(c.spare, ch)
	}
	c.mu.Unlock()
}

// write is the only place bytes reach the connection: the calling goroutine
// numbers one whole exchange from first — the flow-mods, then last, the wire
// form of the message that closes it — marshals it into the controller's one
// buffer and writes it once, all under the write lock, so exchanges never
// interleave on the wire and a window's barrier directly follows its ops.
// Nothing stays buffered when it returns. A failed write may have been
// partial, and the stream cannot resume mid-frame: the failure is kept and
// every later write reports it without touching the connection.
func (c *Controller) write(fms []*openflow.FlowMod, first uint32, last []byte) error {
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
	off := len(buf)
	buf = append(buf, last...)
	binary.BigEndian.PutUint32(buf[off+4:off+8], first+uint32(len(fms))) // its header's xid
	c.wbuf = buf
	if _, err := c.conn.Write(buf); err != nil {
		c.werr = err
		return err
	}
	c.tel.msgsOut.Add(int64(len(fms) + 1))
	return nil
}

// await blocks for the reply on ch, bounded by the configured timeout (when
// set), and hands it to use (nil: the reply carries nothing the caller
// reads). No goroutine reads for it: the caller waits for whichever comes
// first — its reply, which another caller read and routed, the read token,
// or its timer — and with the token it reads the connection itself
// (readUntil), then hands the token back. A nil error means the reply came.
// The caller releases the xid; a straggler routed after a timeout lands in
// the 1-buffered channel and is garbage-collected with it, and one read after
// the release finds no entry and is dropped as a stale reply (see route).
func (c *Controller) await(ch chan openflow.Message, keep bool, use func(openflow.Message)) error {
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
		return delivered(msg, ok, use)
	case <-c.readTok:
		err := c.readUntil(ch, deadline, keep, use)
		c.readTok <- struct{}{}
		return err
	case <-expired:
		return ErrTimeout
	}
}

// readUntil is the token holder's read loop: it reads, decodes and routes
// frames until ch has its reply. Its own reply it hands to use while it still
// holds the token, decoded in the holder's scratch unless keep asks for a
// message of its own, so an exchange that only looks at its reply copies
// nothing. A zero deadline reads without one. A deadline that passes is
// ErrTimeout and leaves the connection usable — a frame cut short stays in
// the reader's buffer for the next holder to finish. Any other read error, or
// a frame that does not decode, is fatal: fail wakes every waiter, the holder
// included.
func (c *Controller) readUntil(ch chan openflow.Message, deadline time.Time, keep bool, use func(openflow.Message)) error {
	if !deadline.IsZero() {
		// An error here means the connection is gone; the read reports it.
		_ = c.conn.SetReadDeadline(deadline)
	}
	for {
		select {
		case msg, ok := <-ch:
			return delivered(msg, ok, use)
		default:
		}
		frame, err := c.rd.ReadFrame()
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				return ErrTimeout
			}
			c.fail(err)
			return ErrClosed
		}
		msg, err := c.dec.Decode(frame)
		if err != nil {
			c.fail(err)
			return ErrClosed
		}
		if c.route(msg, frame, ch) {
			if keep {
				msg = kept(frame)
			}
			return delivered(msg, true, use)
		}
	}
}

// delivered is what a receive from an exchange's channel means: its reply,
// handed to use, or — closed by fail — ErrClosed.
func delivered(msg openflow.Message, ok bool, use func(openflow.Message)) error {
	if !ok {
		return ErrClosed
	}
	if use != nil {
		use(msg)
	}
	return nil
}

// roundTrip is the one request/reply exchange every non-flow-mod operation
// goes through: register an xid, write req (the request's wire form; write
// numbers it), await the reply to it and hand it to use — the read token
// holder's scratch unless keep asks for a message the caller may keep, so use
// must copy what it needs out of it. rtt runs from just before the write to
// the reply's arrival, on the controller's measurement clock; a serial caller
// makes both the write and the read on this goroutine, so it holds no
// hand-off.
func (c *Controller) roundTrip(req []byte, keep bool, use func(openflow.Message)) (rtt time.Duration, err error) {
	xid, ch, err := c.register(0)
	if err != nil {
		return 0, err
	}
	replied := false
	defer func() { c.release(xid, nil, ch, replied) }()
	start := c.clock.Now()
	if err := c.write(nil, xid, req); err != nil {
		return 0, err
	}
	err = c.await(ch, keep, func(msg openflow.Message) {
		rtt = c.clock.Now().Sub(start)
		if use != nil {
			use(msg)
		}
	})
	replied = err == nil
	return rtt, err
}

// The wire form of each request that takes no argument, xid 0 (write numbers
// it).
var (
	helloMsg        = (&openflow.Hello{}).Marshal(nil)
	featuresRequest = (&openflow.FeaturesRequest{}).Marshal(nil)
	barrierRequest  = (&openflow.BarrierRequest{}).Marshal(nil)
	echoRequest     = (&openflow.EchoRequest{Data: []byte("tango")}).Marshal(nil)
	flowStatsAll    = (&openflow.StatsRequest{
		StatsType:   openflow.StatsTypeFlow,
		FlowTableID: 0xff,
		FlowOutPort: openflow.PortNone,
	}).Marshal(nil)
)

func (c *Controller) handshake() error {
	if err := c.write(nil, 0, helloMsg); err != nil {
		return err
	}
	var reply openflow.Message
	if _, err := c.roundTrip(featuresRequest, true, func(m openflow.Message) { reply = m }); err != nil {
		return err
	}
	fr, ok := reply.(*openflow.FeaturesReply)
	if !ok {
		return fmt.Errorf("ofconn: handshake got %v, want FEATURES_REPLY", reply.Type())
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
	var buf [128]byte // a probe's PACKET_OUT, marshalled on the stack
	po := openflow.PacketOut{BufferID: 0xffffffff, InPort: inPort, Data: data}
	var reply openflow.MsgType
	rtt, err = c.roundTrip(po.Marshal(buf[:0]), false, func(m openflow.Message) {
		reply = m.Type()
		if pin, ok := m.(*openflow.PacketIn); ok {
			punted = pin.Reason == openflow.ReasonNoMatch
		}
	})
	if err != nil {
		return 0, false, err
	}
	if reply != openflow.TypePacketIn {
		return 0, false, fmt.Errorf("ofconn: probe got %v, want PACKET_IN", reply)
	}
	return rtt, punted, nil
}

// Echo measures a control-channel round trip.
func (c *Controller) Echo() (time.Duration, error) {
	return c.roundTrip(echoRequest, false, nil)
}

// FlowStats fetches flow statistics for all rules.
func (c *Controller) FlowStats() ([]openflow.FlowStats, error) {
	var reply openflow.Message
	if _, err := c.roundTrip(flowStatsAll, true, func(m openflow.Message) { reply = m }); err != nil {
		return nil, err
	}
	sr, ok := reply.(*openflow.StatsReply)
	if !ok {
		return nil, fmt.Errorf("ofconn: got %v, want STATS_REPLY", reply.Type())
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

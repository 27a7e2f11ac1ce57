package ofconn

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"tango/internal/core/probe"
	"tango/internal/openflow"
	"tango/internal/simclock"
	"tango/internal/telemetry"
)

// Controller is one controller-side OpenFlow connection to a switch. It is
// the probing engine's wire kind of device (probe.PipelinedDevice), so the
// same inference code runs against an in-process emulated switch or a live
// TCP endpoint. It is a serial channel: each call holds the controller's one
// lock for its whole exchange — it writes, then reads on its own goroutine
// until its reply is in — so callers on several goroutines take turns, and
// the controller keeps nothing of a call that has returned. It owns no
// goroutine, and nothing is read between exchanges.
type Controller struct {
	conn net.Conn

	// mu is held for a whole exchange and guards every field down to err:
	// the one frame reader and the decoder its frames go through, the one
	// buffer exchanges are marshalled into, the rejections a flow-mod
	// window collects (async.go), the last xid handed out and the
	// connection's first failure. Once err is set nothing more is written:
	// a failed write may have been partial, and a failed read leaves no
	// stream to resume (err is then ErrClosed).
	mu      sync.Mutex
	rd      *openflow.Reader
	dec     openflow.Decoder
	wbuf    []byte
	werrs   []error
	nextXID uint32
	err     error

	// closed is set by Close, which never takes mu: an exchange the close
	// breaks and every later one report ErrClosed.
	closed atomic.Bool

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
	// Timeout bounds every wait for a switch reply (barrier, probe, echo,
	// stats, handshake), from the moment the exchange's bytes are written;
	// a caller queued behind another goroutine's exchange first waits for
	// that one. Zero keeps the historical block-forever behaviour; set it
	// whenever the peer may lose messages (fault injection, flaky networks)
	// so drops surface as ErrTimeout instead of hangs.
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
		notify:  make(chan openflow.Message, 256),
		timeout: opts.Timeout,
		window:  window,
		clock:   wallClock,
	}
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

// kept decodes a frame that has already been decoded once into the
// controller's scratch into a message of its own, which outlives the next
// read.
func kept(frame []byte) openflow.Message {
	msg, _ := openflow.Decode(frame) // cannot fail: it decoded before
	return msg
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
// controller reads the connection only during an exchange, so a message the
// switch volunteers between exchanges waits in the socket until the next
// one; it is queued here before that exchange returns.
func (c *Controller) Notifications() <-chan openflow.Message { return c.notify }

// write is the only place bytes reach the connection, called with mu held:
// it numbers one whole exchange — the flow-mods fms, then last, the wire
// form of the message that closes it — from a fresh block of consecutive
// xids, marshals it into the controller's one buffer and writes it once, so
// a window's barrier directly follows its ops. No xid is 0: switches send
// what they volunteer (FLOW_REMOVED, PORT_STATUS) with xid 0, so a block
// that would run through it starts at 1 instead. Nothing stays buffered
// when it returns. A failed write is final (see err).
func (c *Controller) write(fms []*openflow.FlowMod, last []byte) (first uint32, err error) {
	if c.closed.Load() {
		return 0, ErrClosed
	}
	if c.err != nil {
		return 0, c.err
	}
	n := uint32(len(fms)) + 1
	first = c.nextXID + 1
	if c.nextXID > math.MaxUint32-n {
		first = 1
	}
	c.nextXID = first + n - 1
	buf := c.wbuf[:0]
	for i, fm := range fms {
		fm.SetXID(first + uint32(i))
		buf = fm.Marshal(buf)
	}
	off := len(buf)
	buf = append(buf, last...)
	binary.BigEndian.PutUint32(buf[off+4:off+8], c.nextXID) // its header's xid
	c.wbuf = buf
	if _, err := c.conn.Write(buf); err != nil {
		if c.closed.Load() {
			err = ErrClosed
		}
		c.err = err
		return 0, err
	}
	c.tel.msgsOut.Add(int64(n))
	return first, nil
}

// readReply is the exchange's read loop, called with mu held after write
// numbered it from first: it reads and decodes frames until the reply to the
// exchange's last message, xid first+len(errs), and hands it to use (nil:
// the reply carries nothing the caller reads) — in the controller's scratch
// unless keep asks for a message of its own, so an exchange that only looks
// at its reply copies nothing. A stats reply in OFPSF_REPLY_MORE parts comes
// to use part by part, up to the one that is not flagged. On the way it puts
// a rejection of one of the exchange's own flow-mods into that op's slot of
// errs, counts a reply nobody awaits any more — a straggler of an exchange
// that timed out — as stale, and queues anything else on Notifications(). A
// passing deadline is ErrTimeout and leaves the connection usable: a frame
// cut short stays in the reader's buffer for the next exchange to finish.
// Any other read error, or a frame that does not decode, is final:
// ErrClosed.
func (c *Controller) readReply(first uint32, errs []error, keep bool, use func(openflow.Message)) error {
	if c.timeout > 0 {
		// An error here means the connection is gone; the read reports it.
		_ = c.conn.SetReadDeadline(time.Now().Add(c.timeout))
	}
	last := first + uint32(len(errs))
	for {
		frame, err := c.rd.ReadFrame()
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				return ErrTimeout
			}
			c.err = ErrClosed
			return ErrClosed
		}
		msg, err := c.dec.Decode(frame)
		if err != nil {
			c.err = ErrClosed
			return ErrClosed
		}
		c.tel.msgsIn.Add(1)
		oe, isErr := msg.(*openflow.Error)
		switch x := msg.XID(); {
		case msg.Type() == openflow.TypeHello:
			// A connection-opening pleasantry, not a reply.
		case x == last:
			more := false
			if sr, ok := msg.(*openflow.StatsReply); ok {
				more = sr.Flags&openflow.StatsReplyMore != 0
			}
			if keep {
				msg = kept(frame)
			}
			if use != nil {
				use(msg)
			}
			if !more {
				return nil
			}
		case isErr && x-first < uint32(len(errs)):
			errs[x-first] = rejection(oe, frame)
		case solicitedOnly(msg.Type()):
			c.tel.staleReplies.Add(1)
		default:
			c.notifyUnsolicited(kept(frame))
		}
	}
}

// roundTrip is the one request/reply exchange every non-flow-mod operation
// goes through: write req (the request's wire form; write numbers it), read
// until its reply and hand that to use, as readReply does. rtt runs from just
// before the write to the reply's arrival (its last part's), on the
// controller's measurement clock.
func (c *Controller) roundTrip(req []byte, keep bool, use func(openflow.Message)) (rtt time.Duration, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	start := c.clock.Now()
	xid, err := c.write(nil, req)
	if err != nil {
		return 0, err
	}
	err = c.readReply(xid, nil, keep, func(msg openflow.Message) {
		rtt = c.clock.Now().Sub(start)
		if use != nil {
			use(msg)
		}
	})
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

// handshake opens the connection: the controller's HELLO on its own — nobody
// else holds c yet — then the FEATURES exchange.
func (c *Controller) handshake() error {
	if _, err := c.write(nil, helloMsg); err != nil {
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

// FlowStats fetches flow statistics for all rules, gathering a reply the
// switch sent in OFPSF_REPLY_MORE parts. A flow's actions never alias the
// frame it was decoded from, so the flows are copied out of scratch.
func (c *Controller) FlowStats() ([]openflow.FlowStats, error) {
	var flows []openflow.FlowStats
	reply := openflow.TypeStatsReply
	_, err := c.roundTrip(flowStatsAll, false, func(m openflow.Message) {
		if sr, ok := m.(*openflow.StatsReply); ok {
			flows = append(flows, sr.Flows...)
		} else {
			reply = m.Type()
		}
	})
	if err != nil {
		return nil, err
	}
	if reply != openflow.TypeStatsReply {
		return nil, fmt.Errorf("ofconn: got %v, want STATS_REPLY", reply)
	}
	return flows, nil
}

// Now returns the time on the clock RTTs are measured against: wall time, so
// probing over a live channel measures real elapsed time.
func (c *Controller) Now() time.Time { return c.clock.Now() }

// Sleep implements probe.Device by charging d to that clock — blocking for
// d of wall time — mirroring SimDevice.Sleep on the virtual-time path.
func (c *Controller) Sleep(d time.Duration) { c.clock.Sleep(d) }

// Close records that the controller is closed and tears down the
// connection without waiting for the exchange in flight: its read or write
// fails, and it returns ErrClosed — never a hang, never success — as does
// every call queued behind it and every later one, without a byte written.
func (c *Controller) Close() error {
	c.tel.tracer.Instant("ofconn.controller.close", "", nil)
	c.closed.Store(true)
	return c.conn.Close()
}

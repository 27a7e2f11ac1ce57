// Package ofconn carries the OpenFlow protocol over TCP: a server loop that
// exposes an emulated switch on a listening socket, and a controller client
// that performs the handshake and offers the synchronous operations Tango's
// probing engine needs (flow-mod with barrier confirmation, probe packets
// with RTT measurement, echo, statistics).
//
// The in-process probing path uses virtual time and is what experiments and
// benchmarks run on; this package exists so the same inference code can be
// pointed at a real socket (cmd/switchd + examples/inference), proving the
// protocol implementation end to end.
package ofconn

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"time"

	"tango/internal/faults"
	"tango/internal/openflow"
	"tango/internal/switchsim"
	"tango/internal/telemetry"
)

// ServeOptions configures ServeWith.
type ServeOptions struct {
	// Logger receives connection-lifecycle messages (errors ending a
	// connection). Nil means log.Default(); tests inject a silenced or
	// capturing logger.
	Logger *log.Logger
	// Metrics receives the server counters (ofconn.accepted, active_conns,
	// msgs_in/out, conn_errors). Nil falls back to the process default.
	Metrics *telemetry.Registry
	// Tracer receives ofconn.accept / ofconn.close lifecycle events. Nil
	// falls back to the process default.
	Tracer *telemetry.Tracer
	// Faults, when non-nil, perturbs the agent loop: requests and replies
	// are dropped, delayed, duplicated, or reordered, flow-mods rejected
	// with spurious table-full errors, and the switch reset mid-stream —
	// one seeded decision per inbound message. Controllers talking to a
	// faulty server should set ControllerOptions.Timeout, or dropped
	// replies hang the awaiting call forever.
	Faults *faults.Injector
}

// serverTelemetry bundles the per-listener handles resolved once in
// ServeWith.
type serverTelemetry struct {
	tracer   *telemetry.Tracer
	accepted *telemetry.Counter
	active   *telemetry.Gauge
	msgsIn   *telemetry.Counter
	msgsOut  *telemetry.Counter
	connErrs *telemetry.Counter
}

// Serve accepts controller connections on ln and services each with sw,
// with default options. It returns when the listener fails (e.g. is
// closed). Each connection is handled on its own goroutine; the switch
// itself serialises operations.
func Serve(ln net.Listener, sw *switchsim.Switch) error {
	return ServeWith(ln, sw, ServeOptions{})
}

// ServeWith is Serve with an injectable logger and telemetry.
func ServeWith(ln net.Listener, sw *switchsim.Switch, opts ServeOptions) error {
	return NewServer(ln, sw, opts).Serve()
}

// Server is a stoppable switch-side listener: the same accept/agent loop
// ServeWith runs, plus connection tracking so Shutdown can drain in-flight
// operations and release every goroutine — the lifecycle cmd/switchd and
// the fleet service's in-process TCP members need. Construct with
// NewServer, run Serve on its own goroutine, stop with Shutdown.
type Server struct {
	ln      net.Listener
	sw      *switchsim.Switch
	lg      *log.Logger
	tel     serverTelemetry
	inj     *faults.Injector
	wg      sync.WaitGroup
	mu      sync.Mutex
	conns   map[net.Conn]struct{}
	closing bool
}

// NewServer wraps an established listener; options resolve exactly as in
// ServeWith.
func NewServer(ln net.Listener, sw *switchsim.Switch, opts ServeOptions) *Server {
	lg := opts.Logger
	if lg == nil {
		lg = log.Default()
	}
	reg := opts.Metrics
	if reg == nil {
		reg = telemetry.Default()
	}
	tr := opts.Tracer
	if tr == nil {
		tr = telemetry.DefaultTracer()
	}
	return &Server{
		ln: ln, sw: sw, lg: lg, inj: opts.Faults,
		conns: make(map[net.Conn]struct{}),
		tel: serverTelemetry{
			tracer:   tr,
			accepted: reg.Counter("ofconn.accepted"),
			active:   reg.Gauge("ofconn.active_conns"),
			msgsIn:   reg.Counter("ofconn.msgs_in"),
			msgsOut:  reg.Counter("ofconn.msgs_out"),
			connErrs: reg.Counter("ofconn.conn_errors"),
		},
	}
}

// Addr returns the listener's address (useful with ":0" listeners).
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Serve runs the accept loop until the listener fails or Shutdown is
// called; a Shutdown-initiated stop returns nil, an external listener
// failure returns its error — so ServeWith keeps its historical contract.
func (s *Server) Serve() error {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			s.mu.Lock()
			closing := s.closing
			s.mu.Unlock()
			if closing {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closing {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.tel.accepted.Add(1)
		s.tel.active.Add(1)
		s.tel.tracer.Instant("ofconn.accept", "", map[string]any{"remote": conn.RemoteAddr().String()})
		go func() {
			defer func() {
				conn.Close()
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				s.tel.active.Add(-1)
				s.tel.tracer.Instant("ofconn.close", "", map[string]any{"remote": conn.RemoteAddr().String()})
				s.wg.Done()
			}()
			if err := handleConn(conn, s.sw, s.tel, s.inj); err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.tel.connErrs.Add(1)
				s.lg.Printf("ofconn: connection from %v ended: %v", conn.RemoteAddr(), err)
			}
		}()
	}
}

// readCloser is the half-close capability Shutdown prefers: stopping the
// request stream while leaving the write side open lets the agent loop
// finish writing the in-flight operation's replies. *net.TCPConn has it.
type readCloser interface{ CloseRead() error }

// Shutdown stops the server gracefully: the listener closes (no new
// connections), every open connection's read side is shut so its agent
// loop drains the operation it is processing — replies still go out — and
// the handler goroutines are awaited. Connections that have not drained
// when grace elapses (or that cannot half-close) are force-closed, so
// Shutdown always returns with every server goroutine released. It is
// idempotent; grace <= 0 force-closes immediately.
func (s *Server) Shutdown(grace time.Duration) error {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closing = true
	open := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		open = append(open, c)
	}
	s.mu.Unlock()

	err := s.ln.Close()
	forced := false
	if grace > 0 {
		for _, c := range open {
			if rc, ok := c.(readCloser); ok {
				_ = rc.CloseRead()
			} else {
				// No half-close (e.g. net.Pipe): the handler only unblocks
				// on a full close; the current op's replies may be cut.
				c.Close()
			}
		}
		done := make(chan struct{})
		go func() { s.wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(grace):
			forced = true
		}
	}
	// Force-close stragglers (and the grace<=0 path); handlers see
	// net.ErrClosed and exit without logging noise.
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	if forced && err == nil {
		err = fmt.Errorf("ofconn: shutdown forced after %v grace", grace)
	}
	return err
}

// handshakeMsg reports whether msg belongs to the connection handshake.
func handshakeMsg(msg openflow.Message) bool {
	switch msg.(type) {
	case *openflow.Hello, *openflow.FeaturesRequest:
		return true
	}
	return false
}

// handleConn runs the per-connection agent loop: an initial HELLO, then a
// strict request→replies cycle driven by the switch's Handle method. A
// non-nil injector draws one fault decision per inbound message and
// perturbs the cycle accordingly.
func handleConn(conn net.Conn, sw *switchsim.Switch, tel serverTelemetry, inj *faults.Injector) error {
	// out is the connection's write buffer: the opening HELLO, then every
	// reply one request draws, marshalled together and written once.
	out := (&openflow.Hello{}).Marshal(nil)
	if _, err := conn.Write(out); err != nil {
		return err
	}
	tel.msgsOut.Add(1)
	rd := openflow.NewReader(conn)
	// held carries replies deferred by a reorder fault; they go out after
	// the next message's replies, swapping the two on the wire.
	var held []openflow.Message
	for {
		msg, err := rd.ReadMessage()
		if err != nil {
			return err
		}
		tel.msgsIn.Add(1)
		var replies []openflow.Message
		var dec faults.Decision
		// The handshake is exempt: a connection that cannot complete
		// HELLO/FEATURES is indistinguishable from a dead listener, which is
		// outside the fault model (we perturb channels, not kill them).
		if !handshakeMsg(msg) {
			dec = inj.Decide() // nil injector never fires
		}
		apply := true
		if dec.Fire {
			switch dec.Kind {
			case faults.KindDrop:
				if dec.AckLoss {
					// Applied by the switch; the replies vanish in transit.
					sw.Handle(msg)
				}
				apply = false
			case faults.KindDelay:
				time.Sleep(dec.Delay)
			case faults.KindReset:
				sw.Reset()
			case faults.KindOverflow:
				if fm, ok := msg.(*openflow.FlowMod); ok {
					// Spurious agent-side rejection: the op is not applied.
					replies = []openflow.Message{&openflow.Error{
						Header:  openflow.Header{Xid: fm.XID()},
						ErrType: openflow.ErrTypeFlowModFailed,
						Code:    openflow.ErrCodeAllTablesFull,
					}}
					apply = false
				}
			}
		}
		if apply {
			replies = sw.Handle(msg) // nothing was put in replies above
		}
		if dec.Fire && dec.Kind == faults.KindDuplicate {
			replies = append(replies, replies...)
		}
		if dec.Fire && dec.Kind == faults.KindReorder && held == nil {
			held = replies
			continue
		}
		replies = append(replies, held...)
		held = nil
		if len(replies) == 0 {
			continue
		}
		out = out[:0]
		for _, reply := range replies {
			out = reply.Marshal(out)
		}
		if _, err := conn.Write(out); err != nil {
			return err
		}
		tel.msgsOut.Add(int64(len(replies)))
	}
}

package ofconn

import (
	"bytes"
	"io"
	"log"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"tango/internal/switchsim"
	"tango/internal/telemetry"
)

// TestDialClosedListener covers the controller-side connect error path: the
// listener is gone before the dial.
func TestDialClosedListener(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	if _, err := DialOptions(addr, ControllerOptions{}); err == nil {
		t.Fatal("Dial to closed listener succeeded")
	}
}

// TestHandshakeServerClosesImmediately covers the handshake error path: the
// server accepts and slams the connection shut before sending anything.
func TestHandshakeServerClosesImmediately(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		conn.Close()
	}()
	c, err := DialOptions(ln.Addr().String(), ControllerOptions{})
	if err == nil {
		c.Close()
		t.Fatal("handshake against immediately-closed server succeeded")
	}
}

// TestHandshakeServerClosesMidHello covers a torn handshake: the server
// writes a partial OpenFlow header and then closes.
func TestHandshakeServerClosesMidHello(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		conn.Write([]byte{0x01, 0x00, 0x00}) // half an OpenFlow header
		conn.Close()
	}()
	c, err := DialOptions(ln.Addr().String(), ControllerOptions{})
	if err == nil {
		c.Close()
		t.Fatal("handshake against mid-hello close succeeded")
	}
}

// TestServeReturnsOnListenerClose proves Serve's exit path: closing the
// listener makes Serve return its accept error instead of hanging.
func TestServeReturnsOnListenerClose(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sw := switchsim.New(switchsim.Switch2(), switchsim.WithClock(fastClock()))
	done := make(chan error, 1)
	go func() { done <- NewServer(ln, sw, ServeOptions{}).Serve() }()
	time.Sleep(10 * time.Millisecond) // let Serve reach Accept
	ln.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Serve returned nil after listener close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not return after listener close")
	}
}

// syncWriter serialises writes from the server's connection goroutines so
// the test can read the buffer race-free.
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// TestServeWithInjectedLogger proves connection errors go through the
// injected logger, and that the server telemetry counters move.
func TestServeWithInjectedLogger(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var out syncWriter
	lg := log.New(&out, "", 0)
	reg := telemetry.NewRegistry()
	sw := switchsim.New(switchsim.Switch2(), switchsim.WithClock(fastClock()))
	go NewServer(ln, sw, ServeOptions{Logger: lg, Metrics: reg}).Serve()

	// A client that writes garbage mid-stream forces a read error on the
	// server side (not EOF), which must be logged via the injected logger.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	io.ReadFull(conn, make([]byte, 8)) // consume the server HELLO
	conn.Write([]byte{0x01, 0x00, 0x00})
	conn.Close()

	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if strings.Contains(out.String(), "ofconn:") {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := out.String(); !strings.Contains(got, "ofconn:") {
		t.Fatalf("injected logger captured nothing; log = %q", got)
	}

	snap := reg.Snapshot()
	if snap.Counters["ofconn.accepted"] < 1 {
		t.Fatalf("ofconn.accepted = %d, want >= 1", snap.Counters["ofconn.accepted"])
	}
	if snap.Counters["ofconn.conn_errors"] < 1 {
		t.Fatalf("ofconn.conn_errors = %d, want >= 1", snap.Counters["ofconn.conn_errors"])
	}
	if snap.Counters["ofconn.msgs_out"] < 1 {
		t.Fatalf("ofconn.msgs_out = %d, want >= 1 (HELLO)", snap.Counters["ofconn.msgs_out"])
	}
}

// TestControllerTelemetry checks the controller-side counters and the
// handshake histogram over a live loopback connection.
func TestControllerTelemetry(t *testing.T) {
	sw := switchsim.New(switchsim.Switch2(), switchsim.WithClock(fastClock()))
	addr := startSwitch(t, sw)
	reg := telemetry.NewRegistry()
	c, err := DialOptions(addr, ControllerOptions{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Echo(); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	// Handshake = HELLO + FEATURES_REQUEST, echo = one more message out.
	if snap.Counters["ofconn.controller.msgs_out"] < 3 {
		t.Fatalf("msgs_out = %d, want >= 3", snap.Counters["ofconn.controller.msgs_out"])
	}
	if snap.Counters["ofconn.controller.msgs_in"] < 2 {
		t.Fatalf("msgs_in = %d, want >= 2", snap.Counters["ofconn.controller.msgs_in"])
	}
	h, ok := snap.Histograms["ofconn.controller.handshake_ns"]
	if !ok || h.Count != 1 || h.Sum <= 0 {
		t.Fatalf("handshake histogram = %+v", h)
	}
}

package ofconn

import (
	"errors"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"tango/internal/faults"
	"tango/internal/openflow"
	"tango/internal/switchsim"
	"tango/internal/telemetry"
)

// TestSplitFrameOutlivesTimeout: half of a reply arrives before the caller's
// deadline, so the call times out with that half in the reader's buffer. The
// connection stays usable: the next call finishes decoding the frame, counts
// it as stale — its exchange has gone — and gets its own reply.
func TestSplitFrameOutlivesTimeout(t *testing.T) {
	ctrlEnd, swEnd := net.Pipe()
	defer swEnd.Close()
	// The switch end answers the handshake itself and hands every later
	// request to the test.
	requests := make(chan openflow.Message, 2)
	go func() {
		defer close(requests)
		rd := openflow.NewReader(swEnd)
		for {
			msg, err := readMessage(rd)
			if err != nil {
				return
			}
			switch msg.(type) {
			case *openflow.Hello:
			case *openflow.FeaturesRequest:
				out := (&openflow.Hello{}).Marshal(nil)
				out = (&openflow.FeaturesReply{Header: openflow.Header{Xid: msg.XID()}, DatapathID: 1}).Marshal(out)
				if _, err := swEnd.Write(out); err != nil {
					return
				}
			default:
				requests <- msg
			}
		}
	}()
	reg := telemetry.NewRegistry()
	c, err := NewControllerOptions(ctrlEnd, ControllerOptions{Timeout: 100 * time.Millisecond, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	echoReply := func(req openflow.Message, data string) []byte {
		return (&openflow.EchoReply{Header: openflow.Header{Xid: req.XID()}, Data: []byte(data)}).Marshal(nil)
	}
	// net.Pipe is unbuffered: a write returns once the controller has read
	// all of it, so rest arrives only after the first half has been read.
	rest := make(chan []byte, 1)
	go func() {
		req, ok := <-requests
		if !ok {
			return
		}
		frame := echoReply(req, "the reply to the exchange that timed out")
		cut := len(frame) / 2 // past the header, inside the body
		if _, err := swEnd.Write(frame[:cut]); err == nil {
			rest <- frame[cut:]
		}
	}()
	if _, err := c.Echo(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("Echo = %v, want ErrTimeout (half its reply came)", err)
	}
	var tail []byte
	select {
	case tail = <-rest:
	case <-time.After(5 * time.Second):
		t.Fatal("the half frame was never read")
	}
	go func() {
		if req, ok := <-requests; ok {
			_, _ = swEnd.Write(append(tail, echoReply(req, "own")...))
		}
	}()
	var reply openflow.Message
	_, err = c.roundTrip((&openflow.EchoRequest{}).Marshal(nil), true, func(m openflow.Message) { reply = m })
	if err != nil {
		t.Fatalf("the exchange after the timeout: %v", err)
	}
	if er, ok := reply.(*openflow.EchoReply); !ok || string(er.Data) != "own" {
		t.Fatalf("the exchange after the timeout got %+v, want its own ECHO_REPLY", reply)
	}
	if n := reg.Counter("ofconn.controller.stale_replies").Value(); n != 1 {
		t.Fatalf("stale_replies = %d, want 1 (the completed half frame)", n)
	}
}

// exchangeState counts the callers blocked in their exchange's read and
// those blocked on the controller's lock, queued behind that exchange.
func exchangeState() (reading, waiting int) {
	buf := make([]byte, 1<<20)
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		switch {
		case !strings.Contains(g, "ofconn.(*Controller)."):
		case strings.Contains(g, "ofconn.(*Controller).readReply") && strings.Contains(g, "[IO wait"):
			reading++
		case strings.Contains(g, "sync.(*Mutex).Lock"):
			waiting++
		}
	}
	return reading, waiting
}

// TestCloseWakesReaderAndWaiter closes the controller while one caller is
// blocked in its exchange's read and another waits for the lock behind it
// (the agent drops every reply and no timeout is set). Both return ErrClosed
// promptly, the lock is free again, and a later call fails with ErrClosed —
// also on a controller closed while no one was reading.
func TestCloseWakesReaderAndWaiter(t *testing.T) {
	sw := switchsim.New(switchsim.Switch2(), switchsim.WithClock(fastClock()))
	c, err := DialOptions(startFaultySwitch(t, sw, faults.NewInjector(faults.Config{Seed: 1, Drop: 1.0})), ControllerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := c.Echo()
			errc <- err
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if reading, waiting := exchangeState(); reading == 1 && waiting == 1 {
			break
		}
		if time.Now().After(deadline) {
			reading, waiting := exchangeState()
			t.Fatalf("%d callers reading and %d waiting for the lock, want 1 and 1", reading, waiting)
		}
		time.Sleep(time.Millisecond)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-errc:
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("Echo across Close = %v, want ErrClosed", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("a caller hung across Close")
		}
	}
	if !c.mu.TryLock() {
		t.Fatal("the lock is still held after both callers returned")
	}
	c.mu.Unlock()
	if _, err := c.Echo(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Echo after Close = %v, want ErrClosed", err)
	}

	// Closed while idle, no read fails to record it: Close does.
	idle, err := DialOptions(startSwitch(t, switchsim.New(switchsim.Switch2(), switchsim.WithClock(fastClock()))), ControllerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	idle.Close()
	if _, err := idle.Echo(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Echo on a controller closed while idle = %v, want ErrClosed", err)
	}
}

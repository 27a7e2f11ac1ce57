package ofconn

import (
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"tango/internal/flowtable"
	"tango/internal/openflow"
	"tango/internal/packet"
	"tango/internal/switchsim"
)

// countConn counts, per direction, the calls that moved data.
type countConn struct {
	net.Conn
	reads, writes atomic.Int64
}

func (c *countConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 {
		c.reads.Add(1)
	}
	return n, err
}

func (c *countConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// countedPair connects a controller to an agent loop over loopback TCP with
// a countConn on each end of the connection.
func countedPair(t *testing.T) (c *Controller, ctrlEnd, agentEnd *countConn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	dialed, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	accepted, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	ctrlEnd, agentEnd = &countConn{Conn: dialed}, &countConn{Conn: accepted}
	sw := switchsim.New(switchsim.Switch2(), switchsim.WithClock(fastClock()))
	agentDone := make(chan struct{})
	go func() {
		defer close(agentDone)
		_ = handleConn(agentEnd, sw, serverTelemetry{}, nil) // ends when the controller hangs up
	}()
	c, err = NewControllerOptions(ctrlEnd, ControllerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		<-agentDone
		accepted.Close()
	})
	return c, ctrlEnd, agentEnd
}

// TestReadsFollowWrites pins the channel's syscall budget. A window and its
// barrier are exactly one controller write (the parent's writer goroutine made
// "a few"), which reaches the agent in at most the two segments loopback may
// split 5.7 KiB into, each taken in one read — not a header read and a body
// read per message, which cost 130 reads for this 65-message window. A
// synchronous FlowMod is exactly one write each way (the parent: "may pay
// two"), and a serial probe is one frame each way and costs each end exactly
// one read.
func TestReadsFollowWrites(t *testing.T) {
	c, ctrlEnd, agentEnd := countedPair(t)
	fms := make([]*openflow.FlowMod, asyncWindow)
	for i := range fms {
		fms[i] = probeAdd(uint32(i))
	}
	reads, writes := agentEnd.reads.Load(), ctrlEnd.writes.Load()
	if _, err := c.FlowModBatch(fms); err != nil {
		t.Fatal(err)
	}
	reads, writes = agentEnd.reads.Load()-reads, ctrlEnd.writes.Load()-writes
	if writes != 1 || reads > 2 {
		t.Fatalf("a %d-op window cost %d controller writes and %d agent reads, want exactly 1 and at most 2",
			len(fms), writes, reads)
	}

	ctrlWrites, agentWrites := ctrlEnd.writes.Load(), agentEnd.writes.Load()
	if err := c.FlowMod(probeAdd(asyncWindow)); err != nil {
		t.Fatal(err)
	}
	if out, back := ctrlEnd.writes.Load()-ctrlWrites, agentEnd.writes.Load()-agentWrites; out != 1 || back != 1 {
		t.Fatalf("a synchronous FlowMod cost %d writes out and %d back, want 1 and 1", out, back)
	}

	data, err := packet.BuildProbe(packet.ProbeSpec{FlowID: 1})
	if err != nil {
		t.Fatal(err)
	}
	agentReads, ctrlReads := agentEnd.reads.Load(), ctrlEnd.reads.Load()
	if _, punted, err := c.SendProbe(data, 1); err != nil || punted {
		t.Fatalf("SendProbe: punted=%v err=%v", punted, err)
	}
	if n := agentEnd.reads.Load() - agentReads; n != 1 {
		t.Fatalf("agent took %d reads for one PACKET_OUT, want 1", n)
	}
	if n := ctrlEnd.reads.Load() - ctrlReads; n != 1 {
		t.Fatalf("controller took %d reads for one PACKET_IN, want 1", n)
	}
}

// TestFlowModAllocationBudget bounds what one flow-mod of a window allocates
// across both ends of the channel: nothing (the parent: 2 — the agent's
// decoded message and its action list) — plus a window's shared costs,
// which are none: FlowModBatch makes no errs when every op is accepted. A
// synchronous FlowMod is a window of one, and its outcome needs no errs.
func TestFlowModAllocationBudget(t *testing.T) {
	c, _ := dialFlaky(t)
	fms := make([]*openflow.FlowMod, asyncWindow)
	for i := range fms {
		fms[i] = probeAdd(uint32(i))
	}
	// Re-adding the same rules overwrites them in place, so the switch model
	// reaches a steady state after the warm-up run AllocsPerRun makes.
	perWindow := testing.AllocsPerRun(20, func() {
		errs, err := c.FlowModBatch(fms)
		if err != nil {
			t.Fatal(err)
		}
		if errs != nil {
			t.Fatalf("an accepted window returned %d outcomes, want nil", len(errs))
		}
	})
	const shared = 0 // the parent: 1 (its errs), 8 before it, 136 for the whole window
	if perWindow > shared {
		t.Fatalf("a %d-op window allocated %.0f times, want at most %d (%.2f per flow-mod)",
			asyncWindow, perWindow, shared, perWindow/asyncWindow)
	}
	perSync := testing.AllocsPerRun(20, func() {
		if err := c.FlowMod(fms[0]); err != nil {
			t.Fatal(err)
		}
	})
	if perSync != 0 {
		t.Fatalf("a synchronous FlowMod allocated %.0f times, want 0 (the parent: 15)", perSync)
	}
}

// TestExchangeAllocationBudget: in steady state a serial probe, an echo and a
// synchronous flow-mod allocate nothing on either end, with or without a
// reply timeout. Each frame is decoded where it was read, the agent writes
// its replies as bytes, the request is marshalled on the caller's stack, and
// a timeout is the connection's read deadline, not a timer per exchange.
func TestExchangeAllocationBudget(t *testing.T) {
	for _, timeout := range []time.Duration{0, 10 * time.Second} {
		sw := switchsim.New(switchsim.Switch2(), switchsim.WithClock(fastClock()))
		c, err := DialOptions(startSwitch(t, sw), ControllerOptions{Timeout: timeout})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		add := probeAdd(1)
		if err := c.FlowMod(add); err != nil {
			t.Fatal(err)
		}
		hit, err := packet.BuildProbe(packet.ProbeSpec{FlowID: 1})
		if err != nil {
			t.Fatal(err)
		}
		miss, err := packet.BuildProbe(packet.ProbeSpec{FlowID: 2})
		if err != nil {
			t.Fatal(err)
		}
		del := &openflow.FlowMod{Command: openflow.FlowDeleteStrict, Match: flowtable.ExactProbeMatch(3), Priority: 10}
		for _, tc := range []struct {
			name string
			op   func() error
		}{
			{"SendProbe hit", func() error {
				_, punted, err := c.SendProbe(hit, 1)
				if err == nil && punted {
					err = fmt.Errorf("punted")
				}
				return err
			}},
			{"SendProbe miss", func() error {
				_, punted, err := c.SendProbe(miss, 1)
				if err == nil && !punted {
					err = fmt.Errorf("forwarded")
				}
				return err
			}},
			{"Echo", func() error { _, err := c.Echo(); return err }},
			{"FlowMod add", func() error { return c.FlowMod(add) }},
			{"FlowMod delete", func() error { return c.FlowMod(del) }},
		} {
			if n := testing.AllocsPerRun(50, func() {
				if err := tc.op(); err != nil {
					t.Fatalf("%s (timeout %v): %v", tc.name, timeout, err)
				}
			}); n != 0 {
				t.Errorf("%s (timeout %v) allocated %.0f times across both ends, want 0", tc.name, timeout, n)
			}
		}
	}
}

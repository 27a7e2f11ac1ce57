package ofconn

import (
	"net"
	"sync/atomic"
	"testing"

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
	c, err = NewController(ctrlEnd)
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

// TestReadsFollowWrites pins the read side's syscall budget. A pipelined
// window reaches the agent in the few segments the writer coalesced it into,
// and the agent must take each in one read — not a header read and a body
// read per message, which cost 130 reads for this 65-message window. A serial
// probe is one frame each way and costs each end exactly one read.
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
	if reads > writes+1 {
		t.Fatalf("agent took %d reads to consume a %d-op window sent in %d writes, want at most %d",
			reads, len(fms), writes, writes+1)
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

// TestFlowModAllocationBudget bounds what one pipelined flow-mod allocates
// across both ends of the channel: its completion and its queued frame on
// the controller, the decoded message and its action list on the agent — 4 —
// plus a window's shared costs (the window slice, one done channel, the
// barrier exchange). A reply or done channel per op adds 1 to that, and a
// frame grown from nil 4, so either regression breaks the bound.
func TestFlowModAllocationBudget(t *testing.T) {
	c, _ := dialFlaky(t)
	fms := make([]*openflow.FlowMod, asyncWindow)
	for i := range fms {
		fms[i] = probeAdd(uint32(i))
	}
	// Re-adding the same rules overwrites them in place, so the switch model
	// reaches a steady state after the warm-up run AllocsPerRun makes.
	perWindow := testing.AllocsPerRun(20, func() {
		for _, fm := range fms {
			if _, err := c.FlowModAsync(fm); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	})
	const shared = 24 // measured: 17 (window slice growth 7, barrier exchange 9, done 1)
	if limit := float64(4*asyncWindow + shared); perWindow > limit {
		t.Fatalf("a %d-op window allocated %.0f times, want at most %.0f (%.2f per flow-mod)",
			asyncWindow, perWindow, limit, perWindow/asyncWindow)
	}
}

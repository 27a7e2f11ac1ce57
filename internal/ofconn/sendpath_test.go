package ofconn

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"tango/internal/core/probe"
	"tango/internal/faults"
	"tango/internal/openflow"
	"tango/internal/switchsim"
)

// tapConn counts the controller's writes and keeps a copy of everything it
// reads, so a test can decode exactly which replies an operation drew.
type tapConn struct {
	net.Conn
	mu     sync.Mutex
	writes int
	read   bytes.Buffer
}

func (c *tapConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	c.writes++
	c.mu.Unlock()
	return c.Conn.Write(b)
}

func (c *tapConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.mu.Lock()
	c.read.Write(b[:n])
	c.mu.Unlock()
	return n, err
}

// reset forgets what crossed so far; drain returns the write count and the
// decoded replies since.
func (c *tapConn) reset() {
	c.mu.Lock()
	c.writes = 0
	c.read.Reset()
	c.mu.Unlock()
}

func (c *tapConn) drain(t *testing.T) (writes int, replies []openflow.Message) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	rd := openflow.NewReader(&c.read)
	for {
		msg, err := rd.ReadMessage()
		if err == io.EOF {
			return c.writes, replies
		}
		if err != nil {
			t.Fatalf("decoding tapped replies: %v", err)
		}
		replies = append(replies, msg)
	}
}

// TestFlowModsEmptyIsOneBarrier pins what benchmark/layers.go measures as
// ofconn.barrier_us_p50: an empty batch is a bare barrier — one write out,
// one BARRIER_REPLY back — and leaves nothing registered.
func TestFlowModsEmptyIsOneBarrier(t *testing.T) {
	sw := switchsim.New(switchsim.Switch2(), switchsim.WithClock(fastClock()))
	raw, err := net.Dial("tcp", startSwitch(t, sw))
	if err != nil {
		t.Fatal(err)
	}
	tap := &tapConn{Conn: raw}
	c, err := NewController(tap)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for round := 0; round < 3; round++ {
		tap.reset()
		if err := c.FlowMods(nil); err != nil {
			t.Fatalf("FlowMods(nil): %v", err)
		}
		writes, replies := tap.drain(t)
		if writes != 1 {
			t.Fatalf("round %d: FlowMods(nil) cost %d writes, want 1", round, writes)
		}
		if len(replies) != 1 || replies[0].Type() != openflow.TypeBarrierReply {
			t.Fatalf("round %d: FlowMods(nil) drew %v, want one BARRIER_REPLY", round, replies)
		}
		if n := c.pendingLen(); n != 0 {
			t.Fatalf("round %d: %d XIDs left pending", round, n)
		}
	}
}

// TestFlowModReportsOnlyItsOwnOutcome: a synchronous FlowMod issued while an
// earlier pipelined op is unflushed shares that op's barrier but not its
// fate — the earlier add's table-full stays on its own completion.
func TestFlowModReportsOnlyItsOwnOutcome(t *testing.T) {
	c, _ := dialFlakyProfile(t, switchsim.Switch3())
	const n = 420 // past Switch#3's wide-rule capacity
	fms := make([]*openflow.FlowMod, n)
	for i := range fms {
		fms[i] = probeAdd(uint32(i))
	}
	errs, err := c.FlowModBatch(fms)
	if err != nil {
		t.Fatalf("FlowModBatch: %v", err)
	}
	if !errors.Is(errs[n-1], switchsim.ErrTableFull) {
		t.Fatalf("fill: last op = %v, want ErrTableFull (table not full)", errs[n-1])
	}

	overflow, err := c.FlowModAsync(probeAdd(n))
	if err != nil {
		t.Fatalf("FlowModAsync: %v", err)
	}
	del := probeAdd(0)
	del.Command = openflow.FlowDeleteStrict
	if err := c.FlowMod(del); err != nil {
		t.Fatalf("FlowMod(delete) behind a rejected add = %v, want nil", err)
	}
	got, resolved := overflow.Err()
	if !resolved {
		t.Fatal("the earlier op was not covered by the FlowMod's barrier")
	}
	if !errors.Is(got, switchsim.ErrTableFull) {
		t.Fatalf("earlier op = %v, want ErrTableFull on its own completion", got)
	}
	if n := c.pendingLen(); n != 0 {
		t.Fatalf("%d XIDs left pending", n)
	}
}

// TestFlowModTimeoutIsRetried: with every reply dropped, FlowMod's barrier
// times out as ErrTimeout and releases its XIDs, and a retry-hardened engine
// treats that as transient — it scrubs and re-issues until the budget is
// spent, then reports exhaustion wrapping the timeout.
func TestFlowModTimeoutIsRetried(t *testing.T) {
	sw := switchsim.New(switchsim.Switch2(), switchsim.WithClock(fastClock()))
	addr := startFaultySwitch(t, sw, faults.NewInjector(faults.Config{Seed: 1, Drop: 1.0}))
	c, err := DialOptions(addr, ControllerOptions{Timeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.FlowMod(probeAdd(1)); !errors.Is(err, ErrTimeout) {
		t.Fatalf("FlowMod = %v, want ErrTimeout", err)
	}
	if n := c.pendingLen(); n != 0 {
		t.Fatalf("timed-out FlowMod leaked %d pending XIDs", n)
	}

	e := probe.NewEngine(c)
	e.Retry = probe.Retry{MaxAttempts: 3}
	err = e.Install(2, 10)
	if !errors.Is(err, probe.ErrExhausted) || !errors.Is(err, ErrTimeout) {
		t.Fatalf("Install = %v, want ErrExhausted wrapping ErrTimeout", err)
	}
	var ex *probe.ExhaustedError
	if !errors.As(err, &ex) || ex.Attempts != 3 {
		t.Fatalf("Install = %v, want three attempts", err)
	}
	if n := c.pendingLen(); n != 0 {
		t.Fatalf("exhausted retries leaked %d pending XIDs", n)
	}
}

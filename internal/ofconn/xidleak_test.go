package ofconn

import (
	"errors"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"tango/internal/flowtable"
	"tango/internal/openflow"
	"tango/internal/simclock"
	"tango/internal/switchsim"
)

// failingWriteConn wraps a live connection and starts failing writes after
// `allow` more succeed, while reads keep working — so the controller's read
// loop stays healthy and any pending-map cleanup observed is the work of
// the send error paths, not of connection teardown. The first failing write
// still delivers its first `short` bytes; `late` counts the bytes offered by
// writes after it, which a controller must never attempt.
type failingWriteConn struct {
	net.Conn
	mu     sync.Mutex
	armed  bool
	allow  int
	short  int
	failed bool
	late   int
}

func (f *failingWriteConn) arm(allow int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.armed = true
	f.allow = allow
}

// armShort makes the next write a partial one: short bytes, then an error.
func (f *failingWriteConn) armShort(short int) {
	f.arm(0)
	f.mu.Lock()
	f.short = short
	f.mu.Unlock()
}

func (f *failingWriteConn) lateBytes() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.late
}

func (f *failingWriteConn) Write(p []byte) (int, error) {
	f.mu.Lock()
	fail := f.armed && f.allow <= 0
	if f.armed && f.allow > 0 {
		f.allow--
	}
	short := 0
	if fail && !f.failed {
		f.failed = true
		short = min(f.short, len(p))
	} else if fail {
		f.late += len(p)
	}
	f.mu.Unlock()
	if fail {
		n := 0
		if short > 0 {
			n, _ = f.Conn.Write(p[:short])
		}
		return n, errors.New("injected write failure")
	}
	return f.Conn.Write(p)
}

func (c *Controller) pendingLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

func dialFlaky(t *testing.T) (*Controller, *failingWriteConn) {
	t.Helper()
	return dialFlakyProfile(t, switchsim.Switch2())
}

func probeAdd(id uint32) *openflow.FlowMod {
	return &openflow.FlowMod{
		Command:  openflow.FlowAdd,
		Match:    flowtable.ExactProbeMatch(id),
		Priority: 10,
		Actions:  flowtable.Output(1),
	}
}

// TestFlowModSendFailureReleasesXIDs pins the regression on the one send
// path: when the window's conn.Write fails, FlowMod and FlowMods report it
// and release every XID they registered — each flow-mod's and the barrier's.
// A leaked entry would sit in pending forever and misroute a late reply that
// reuses the XID. (A window and its barrier are one write, so the barrier's
// bytes can fail alone only in a partial write: TestFlowModAsyncBarrierFailure.)
func TestFlowModSendFailureReleasesXIDs(t *testing.T) {
	for _, tc := range []struct {
		name string
		call func(c *Controller) error
	}{
		{"FlowMod", func(c *Controller) error { return c.FlowMod(probeAdd(1)) }},
		{"FlowMods", func(c *Controller) error {
			return c.FlowMods([]*openflow.FlowMod{probeAdd(1), probeAdd(2), probeAdd(3)})
		}},
		{"FlowMods(nil)", func(c *Controller) error { return c.FlowMods(nil) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, fc := dialFlaky(t)
			fc.arm(0)
			if err := tc.call(c); err == nil {
				t.Fatal("want the write failure")
			}
			if n := c.pendingLen(); n != 0 {
				t.Fatalf("send failure leaked %d pending XIDs", n)
			}
		})
	}
}

// TestRequestSendFailureReleasesXIDs covers the request/reply exchanges: a
// failed write must release the request's XID. One controller serves all
// four — the first failure poisons the write side, and a refused write must
// release its XID just the same.
func TestRequestSendFailureReleasesXIDs(t *testing.T) {
	c, fc := dialFlaky(t)
	fc.arm(0)
	for _, tc := range []struct {
		name string
		call func() error
	}{
		{"SendProbe", func() error { _, _, err := c.SendProbe([]byte{0}, 1); return err }},
		{"Echo", func() error { _, err := c.Echo(); return err }},
		{"TableStats", func() error { _, err := c.TableStats(); return err }},
		{"FlowStats", func() error { _, err := c.FlowStats(); return err }},
	} {
		if err := tc.call(); err == nil {
			t.Fatalf("%s with failing send: want error", tc.name)
		}
		if n := c.pendingLen(); n != 0 {
			t.Fatalf("%s send failure leaked %d pending XIDs", tc.name, n)
		}
	}
}

// TestPartialWritePoisonsConnection: a write that fails after some of its
// bytes left cannot be followed by another — the stream would resume
// mid-frame. The op in flight gets the error, every later operation gets one
// without a single further byte offered to the connection, and no XID leaks.
func TestPartialWritePoisonsConnection(t *testing.T) {
	c, fc := dialFlaky(t)
	fm := probeAdd(1)
	fc.armShort(len(fm.Marshal(nil)) / 2) // the write dies inside the flow-mod's frame
	if err := c.FlowMod(fm); err == nil {
		t.Fatal("FlowMod over a partial write: want error")
	}
	for _, tc := range []struct {
		name string
		call func() error
	}{
		{"FlowMod", func() error { return c.FlowMod(probeAdd(2)) }},
		{"FlowMods(nil)", func() error { return c.FlowMods(nil) }},
		{"SendProbe", func() error { _, _, err := c.SendProbe([]byte{0}, 1); return err }},
		{"Echo", func() error { _, err := c.Echo(); return err }},
	} {
		if err := tc.call(); err == nil {
			t.Fatalf("%s after a partial write: want error", tc.name)
		}
		if n := fc.lateBytes(); n != 0 {
			t.Fatalf("%s offered %d bytes to a stream broken mid-frame", tc.name, n)
		}
		if n := c.pendingLen(); n != 0 {
			t.Fatalf("%s leaked %d pending XIDs", tc.name, n)
		}
	}
}

// TestXIDBlockSkipsZeroAndPending drives a batch across the 32-bit counter's
// wraparound. Switches send what they volunteer with xid 0, so an exchange
// that drew 0 would take a notification for its answer (or swallow it), and a
// block that ran over an xid still in the table would steal that exchange's
// reply. A flagged rule expires during the batch, so a FLOW_REMOVED with xid 0
// arrives among its replies; xid 3 is held by an exchange still waiting.
func TestXIDBlockSkipsZeroAndPending(t *testing.T) {
	clk := simclock.NewVirtual()
	sw := switchsim.New(switchsim.Switch3().WithTCAMCapacity(6), switchsim.WithClock(clk))
	c, err := Dial(startSwitch(t, sw))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	timed := probeAdd(100)
	timed.HardTimeout = 5
	timed.Flags = openflow.FlagSendFlowRem
	if err := c.FlowMod(timed); err != nil {
		t.Fatal(err)
	}
	clk.Sleep(6 * time.Second) // swept, and reported, with the batch's first op

	waiting := make(chan openflow.Message, 1)
	c.mu.Lock()
	c.nextXID = math.MaxUint32 - 3
	c.pending[3] = pendingReply{ch: waiting}
	c.mu.Unlock()

	fms := make([]*openflow.FlowMod, 10)
	for i := range fms {
		fms[i] = probeAdd(uint32(i))
	}
	errs, err := c.FlowModBatch(fms)
	if err != nil {
		t.Fatalf("FlowModBatch: %v", err)
	}
	for i, e := range errs {
		if i < 6 && e != nil {
			t.Fatalf("op %d: %v, want accepted", i, e)
		}
		if i >= 6 && !errors.Is(e, switchsim.ErrTableFull) {
			t.Fatalf("op %d: %v, want ErrTableFull", i, e)
		}
	}
	select {
	case msg := <-c.Notifications():
		if _, ok := msg.(*openflow.FlowRemoved); !ok {
			t.Fatalf("notification = %T, want FLOW_REMOVED", msg)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the FLOW_REMOVED was taken for a reply: no notification")
	}
	c.mu.Lock()
	held, next := c.pending[3], c.nextXID
	delete(c.pending, 3)
	c.mu.Unlock()
	if held.ch != waiting || len(waiting) != 0 {
		t.Fatal("the batch ran over an xid that was still registered")
	}
	// MaxUint32-2 … MaxUint32 would run into 0 and 1 … 3 into the held xid:
	// the block of eleven is 4 … 14.
	if next != 14 {
		t.Fatalf("nextXID = %d after the batch, want 14", next)
	}
	if n := c.pendingLen(); n != 0 {
		t.Fatalf("%d XIDs left pending", n)
	}
}

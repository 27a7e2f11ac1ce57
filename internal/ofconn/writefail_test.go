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
// `allow` more succeed, while reads keep working — so what a test observes
// is the work of the send error paths, not of connection teardown. The
// first failing write
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

// TestFlowModSendFailureReleasesXIDs pins the one send path's failure: when
// the window's conn.Write fails, FlowMod and FlowMods report it instead of
// waiting for a barrier reply that cannot come. (A window and its barrier
// are one write, so the barrier's bytes can fail alone only in a partial
// write: TestFlowModAsyncBarrierFailure.)
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
		})
	}
}

// TestRequestSendFailureReleasesXIDs covers the request/reply exchanges: a
// failed write is the call's error. One controller serves all four — the
// first failure poisons the write side, and every later call reports it.
func TestRequestSendFailureReleasesXIDs(t *testing.T) {
	c, fc := dialFlaky(t)
	fc.arm(0)
	for _, tc := range []struct {
		name string
		call func() error
	}{
		{"SendProbe", func() error { _, _, err := c.SendProbe([]byte{0}, 1); return err }},
		{"Echo", func() error { _, err := c.Echo(); return err }},
		{"TableStats", func() error { _, err := tableStats(c); return err }},
		{"FlowStats", func() error { _, err := c.FlowStats(); return err }},
	} {
		if err := tc.call(); err == nil {
			t.Fatalf("%s with failing send: want error", tc.name)
		}
	}
}

// TestPartialWritePoisonsConnection: a write that fails after some of its
// bytes left cannot be followed by another — the stream would resume
// mid-frame. The op in flight gets the error, every later operation gets one
// without a single further byte offered to the connection.
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
	}
}

// TestXIDBlockSkipsZeroAndPending drives a batch across the 32-bit counter's
// wraparound. Switches send what they volunteer with xid 0, so an exchange
// that drew 0 would take a notification for its answer (or swallow it). A
// flagged rule expires during the batch, so a FLOW_REMOVED with xid 0
// arrives among its replies.
func TestXIDBlockSkipsZeroAndPending(t *testing.T) {
	clk := simclock.NewVirtual()
	sw := switchsim.New(switchsim.Switch3().WithTCAMCapacity(6), switchsim.WithClock(clk))
	c, err := DialOptions(startSwitch(t, sw), ControllerOptions{})
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

	c.mu.Lock()
	c.nextXID = math.MaxUint32 - 3
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
	next := c.nextXID
	c.mu.Unlock()
	// MaxUint32-2 … MaxUint32 would run into 0: the block of eleven is 1 … 11.
	if next != 11 {
		t.Fatalf("nextXID = %d after the batch, want 11", next)
	}
}

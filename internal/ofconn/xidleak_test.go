package ofconn

import (
	"errors"
	"net"
	"sync"
	"testing"

	"tango/internal/flowtable"
	"tango/internal/openflow"
	"tango/internal/switchsim"
)

// failingWriteConn wraps a live connection and starts failing writes after
// `allow` more succeed, while reads keep working — so the controller's read
// loop stays healthy and any pending-map cleanup observed is the work of
// the send error paths, not of connection teardown.
type failingWriteConn struct {
	net.Conn
	mu    sync.Mutex
	armed bool
	allow int
}

func (f *failingWriteConn) arm(allow int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.armed = true
	f.allow = allow
}

func (f *failingWriteConn) Write(p []byte) (int, error) {
	f.mu.Lock()
	fail := f.armed && f.allow <= 0
	if f.armed && f.allow > 0 {
		f.allow--
	}
	f.mu.Unlock()
	if fail {
		return 0, errors.New("injected write failure")
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
	sw := switchsim.New(switchsim.Switch2(), switchsim.WithClock(fastClock()))
	addr := startSwitch(t, sw)
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	fc := &failingWriteConn{Conn: raw}
	c, err := NewController(fc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, fc
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
// path: when the writer's conn.Write fails, FlowMod and FlowMods report it
// and release every XID they registered — each flow-mod's and the barrier's.
// A leaked entry would sit in pending forever and misroute a late reply that
// reuses the XID. (The parent's barrier-write-only and mid-batch cases are
// gone with the per-message writes they sequenced: the writer coalesces a
// batch into one write, and a flow-mod on the wire with only its barrier's
// write failing is TestFlowModAsyncBarrierFailure, which sequences the two
// writes through the asyncWrites counter.)
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

// TestRequestSendFailureReleasesXIDs covers the request/reply exchanges,
// which write directly: a failed write must release the request's XID. One
// controller serves all four — a direct write failure poisons nothing.
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

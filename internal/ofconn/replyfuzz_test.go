package ofconn

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"testing"
	"time"

	"tango/internal/flowtable"
	"tango/internal/openflow"
	"tango/internal/packet"
	"tango/internal/telemetry"
)

// scriptConn is a switch that has its replies written down in advance. It
// answers the handshake itself — a HELLO and a FEATURES_REPLY to the
// controller's FEATURES_REQUEST — then serves script, whatever the
// controller asks, and after it io.EOF. It keeps every byte written. It runs
// no goroutine and has no deadlines, so a controller over it is
// deterministic.
type scriptConn struct {
	in      []byte // what Read serves next
	script  []byte // served once the handshake has been answered
	written []byte
	writes  int
}

func (c *scriptConn) Read(b []byte) (int, error) {
	if len(c.in) == 0 {
		c.in, c.script = c.script, nil
	}
	if len(c.in) == 0 {
		return 0, io.EOF
	}
	n := copy(b, c.in)
	c.in = c.in[n:]
	return n, nil
}

func (c *scriptConn) Write(b []byte) (int, error) {
	c.writes++
	c.written = append(c.written, b...)
	for p := b; len(p) >= 8; p = p[binary.BigEndian.Uint16(p[2:4]):] {
		if openflow.MsgType(p[1]) == openflow.TypeFeaturesRequest {
			hdr := openflow.Header{Xid: binary.BigEndian.Uint32(p[4:8])}
			c.in = (&openflow.Hello{}).Marshal(c.in)
			c.in = (&openflow.FeaturesReply{Header: hdr, DatapathID: 1}).Marshal(c.in)
		}
	}
	return len(b), nil
}

func (c *scriptConn) Close() error                     { return nil }
func (c *scriptConn) LocalAddr() net.Addr              { return scriptAddr{} }
func (c *scriptConn) RemoteAddr() net.Addr             { return scriptAddr{} }
func (c *scriptConn) SetDeadline(time.Time) error      { return nil }
func (c *scriptConn) SetReadDeadline(time.Time) error  { return nil }
func (c *scriptConn) SetWriteDeadline(time.Time) error { return nil }

type scriptAddr struct{}

func (scriptAddr) Network() string { return "script" }
func (scriptAddr) String() string  { return "script" }

// replySeries runs the fuzzed series of calls — an Echo, a FlowMod, a 3-op
// FlowModBatch, a SendProbe and a FlowStats, twice — over a controller that
// reads script, and returns what each call returned, what reached
// Notifications(), the controller's counters and every byte it wrote. After
// the first call that reports ErrClosed, every call must report it and write
// nothing.
func replySeries(t *testing.T, script []byte) []string {
	conn := &scriptConn{script: script}
	reg := telemetry.NewRegistry()
	c, err := NewControllerOptions(conn, ControllerOptions{Metrics: reg})
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	probe, err := packet.BuildProbe(packet.ProbeSpec{FlowID: 1})
	if err != nil {
		t.Fatal(err)
	}
	add := func(id uint32) *openflow.FlowMod {
		return &openflow.FlowMod{Command: openflow.FlowAdd, Match: flowtable.ExactProbeMatch(id),
			Priority: 10, Actions: flowtable.Output(1)}
	}
	calls := []struct {
		name string
		call func() (string, error)
	}{
		{"Echo", func() (string, error) { _, err := c.Echo(); return "", err }},
		{"FlowMod", func() (string, error) { return "", c.FlowMod(add(1)) }},
		{"FlowModBatch", func() (string, error) {
			errs, err := c.FlowModBatch([]*openflow.FlowMod{add(2), add(3), add(4)})
			return fmt.Sprint(errs), err
		}},
		{"SendProbe", func() (string, error) {
			_, punted, err := c.SendProbe(probe, 1)
			return fmt.Sprint("punted=", punted), err
		}},
		{"FlowStats", func() (string, error) {
			flows, err := c.FlowStats()
			return fmt.Sprint(len(flows), " flows"), err
		}},
	}
	var out []string
	closed := false
	for round := 0; round < 2; round++ {
		for _, tc := range calls {
			writes := conn.writes
			got, err := tc.call()
			if closed && (!errors.Is(err, ErrClosed) || conn.writes != writes) {
				t.Fatalf("%s after ErrClosed = %v with %d writes, want ErrClosed and none", tc.name, err, conn.writes-writes)
			}
			closed = closed || errors.Is(err, ErrClosed)
			out = append(out, fmt.Sprintf("%s: %s %v", tc.name, got, err))
		}
	}
	c.Close()
	for len(c.Notifications()) > 0 {
		msg := <-c.Notifications()
		out = append(out, fmt.Sprintf("notified %v xid %d", msg.Type(), msg.XID()))
	}
	snap := reg.Snapshot()
	for _, name := range []string{"msgs_in", "msgs_out", "stale_replies", "notify_dropped"} {
		out = append(out, fmt.Sprintf("%s %d", name, snap.Counters["ofconn.controller."+name]))
	}
	return append(out, fmt.Sprintf("wrote %x", conn.written))
}

// FuzzControllerReplies feeds the controller arbitrary replies to a fixed
// series of calls. It must not panic or hang, must give the same outcomes
// when the series is replayed on the same bytes, and once a call reports
// ErrClosed — the script ran out, or a frame did not decode — every later
// call must report it without writing a byte. The seed added here holds the
// replies a switch owes; those in testdata/fuzz add a wrong xid, a stale
// reply, a duplicated barrier or a duplicated ERROR to them.
func FuzzControllerReplies(f *testing.F) {
	// The controller numbers its HELLO 1 and its FEATURES_REQUEST 2, so the
	// Echo is 3, the FlowMod 4 and its barrier 5, the batch 6–8 and its
	// barrier 9, the probe 10 and the flow-stats request 11.
	hdr := func(xid uint32) openflow.Header { return openflow.Header{Xid: xid} }
	probe, _ := packet.BuildProbe(packet.ProbeSpec{FlowID: 1})
	full := &openflow.Error{Header: hdr(7), ErrType: openflow.ErrTypeFlowModFailed, Code: openflow.ErrCodeAllTablesFull}
	owed := []openflow.Message{
		&openflow.EchoReply{Header: hdr(3), Data: []byte("tango")},
		&openflow.BarrierReply{Header: hdr(5)},
		full,
		&openflow.BarrierReply{Header: hdr(9)},
		&openflow.PacketIn{Header: hdr(10), BufferID: 0xffffffff, InPort: 1, Reason: openflow.ReasonNoMatch, Data: probe},
		&openflow.StatsReply{Header: hdr(11), StatsType: openflow.StatsTypeFlow,
			Flows: []openflow.FlowStats{{Match: flowtable.ExactProbeMatch(2), Priority: 10}}},
	}
	var seed []byte
	for _, m := range owed {
		seed = m.Marshal(seed)
	}
	f.Add(seed)

	f.Fuzz(func(t *testing.T, script []byte) {
		first := replySeries(t, script)
		if again := replySeries(t, bytes.Clone(script)); !reflect.DeepEqual(first, again) {
			t.Fatalf("the replay differs:\n%q\nthen\n%q", first, again)
		}
	})
}

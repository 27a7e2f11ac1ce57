package ofconn

import (
	"bytes"
	"errors"
	"io"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tango/internal/core/probe"
	"tango/internal/faults"
	"tango/internal/openflow"
	"tango/internal/packet"
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
	c, err := NewControllerOptions(tap, ControllerOptions{})
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

// TestFlowModReportsOnlyItsOwnOutcome: ops that share a window share its
// barrier but not each other's fate — on a full table, the rejected adds'
// table-full stays in their own slots and the delete and the add it makes
// room for, sent between them, report nil.
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

	del := probeAdd(0)
	del.Command = openflow.FlowDeleteStrict
	errs, err = c.FlowModBatch([]*openflow.FlowMod{probeAdd(n), del, probeAdd(n + 1), probeAdd(n + 2)})
	if err != nil {
		t.Fatalf("FlowModBatch: %v", err)
	}
	for i, want := range []error{switchsim.ErrTableFull, nil, nil, switchsim.ErrTableFull} {
		if !errors.Is(errs[i], want) {
			t.Fatalf("op %d = %v, want %v", i, errs[i], want)
		}
	}
	if err := c.FlowMod(del); err != nil {
		t.Fatalf("FlowMod(delete) after a rejected add = %v, want nil", err)
	}
	if n := c.pendingLen(); n != 0 {
		t.Fatalf("%d XIDs left pending", n)
	}
}

// TestConcurrentCallersOneConnection puts eight goroutines on one controller,
// each looping a batch that overflows the small TCAM on its own, a flow-stats
// request, a single flow-mod, probes and an echo. The controller has no
// reader of its own: whichever caller holds the read token reads every
// caller's replies, each under its own deadline. Every op's outcome must be
// its own. Each caller owns a disjoint range of flows, so the stats reply and
// a probe are the oracles: a flow whose add was confirmed is listed and
// forwarded, one whose add was refused is neither — a rejection that landed
// on another caller's op, or on a neighbour in the same window, and a stats
// reply or PACKET_IN delivered to the wrong exchange, all break them. Run it
// with -race -count=10.
func TestConcurrentCallersOneConnection(t *testing.T) {
	check := leakCheck(t)
	const callers, rounds, batch, capacity = 8, 6, 16, 12
	sw := switchsim.New(switchsim.Switch3().WithTCAMCapacity(capacity), switchsim.WithClock(fastClock()))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ln, sw, ServeOptions{})
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()
	// A timeout far beyond any reply: every token holder reads under a deadline.
	c, err := DialOptions(srv.Addr().String(), ControllerOptions{AsyncWindow: 5, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}

	var accepted, refused atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(base uint32) {
			defer wg.Done()
			// settle checks one add's outcome against the data plane and
			// removes the rule again if it went in.
			settle := func(id uint32, outcome error) {
				if outcome != nil && !errors.Is(outcome, switchsim.ErrTableFull) {
					t.Errorf("flow %d: add = %v", id, outcome)
					return
				}
				data, err := packet.BuildProbe(packet.ProbeSpec{FlowID: id})
				if err != nil {
					t.Error(err)
					return
				}
				_, punted, err := c.SendProbe(data, 1)
				if err != nil || punted != (outcome != nil) {
					t.Errorf("flow %d: add = %v but probe punted=%v err=%v", id, outcome, punted, err)
				}
				if outcome != nil {
					refused.Add(1)
					return
				}
				accepted.Add(1)
				del := probeAdd(id)
				del.Command = openflow.FlowDeleteStrict
				if err := c.FlowMod(del); err != nil {
					t.Errorf("flow %d: delete = %v", id, err)
				}
			}
			for r := 0; r < rounds; r++ {
				fms := make([]*openflow.FlowMod, batch)
				for i := range fms {
					fms[i] = probeAdd(base + uint32(i))
				}
				errs, err := c.FlowModBatch(fms)
				if err != nil {
					t.Errorf("caller %d round %d: FlowModBatch = %v", base, r, err)
					return
				}
				flows, err := c.FlowStats()
				if err != nil {
					t.Errorf("caller %d round %d: FlowStats = %v", base, r, err)
					return
				}
				listed := make(map[netip.Addr]bool, len(flows))
				for _, f := range flows {
					listed[f.Match.NwSrc.Addr()] = true
				}
				for i, e := range errs {
					id := base + uint32(i)
					if on := listed[packet.ProbeSrcIP(id)]; on != (e == nil) {
						t.Errorf("flow %d: add = %v but listed in the stats reply = %v", id, e, on)
					}
				}
				if _, err := c.Echo(); err != nil {
					t.Errorf("caller %d round %d: Echo = %v", base, r, err)
				}
				for i, e := range errs {
					settle(base+uint32(i), e)
				}
				settle(base+batch, c.FlowMod(probeAdd(base+batch)))
			}
		}(uint32(g * 100))
	}
	wg.Wait()
	if accepted.Load() == 0 || refused.Load() < callers*rounds*(batch-capacity) {
		t.Fatalf("%d adds accepted, %d refused: the batches did not overflow the table", accepted.Load(), refused.Load())
	}
	if n := c.pendingLen(); n != 0 {
		t.Fatalf("%d XIDs left pending", n)
	}
	if tcam, hw, soft := sw.RuleCount(); tcam+hw+soft != 0 {
		t.Fatalf("%d rules left behind", tcam+hw+soft)
	}
	c.Close()
	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	<-served
	check()
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

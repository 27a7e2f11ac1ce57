package ofconn

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"tango/internal/faults"
	"tango/internal/flowtable"
	"tango/internal/openflow"
	"tango/internal/switchsim"
	"tango/internal/telemetry"
)

// startFaultySwitch serves sw through the injector and returns its address.
func startFaultySwitch(t *testing.T, sw *switchsim.Switch, inj *faults.Injector) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go NewServer(ln, sw, ServeOptions{Faults: inj}).Serve()
	return ln.Addr().String()
}

func testAdd(id uint32) *openflow.FlowMod {
	return &openflow.FlowMod{
		Command:  openflow.FlowAdd,
		Match:    flowtable.ExactProbeMatch(id),
		Priority: 10,
		Actions:  flowtable.Output(1),
	}
}

func TestTimeoutWhenServerDropsReplies(t *testing.T) {
	sw := switchsim.New(switchsim.Switch2(), switchsim.WithClock(fastClock()))
	inj := faults.NewInjector(faults.Config{Seed: 1, Drop: 1.0})
	addr := startFaultySwitch(t, sw, inj)
	c, err := DialOptions(addr, ControllerOptions{Timeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	err = c.FlowMod(testAdd(1))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("got %v, want ErrTimeout when every reply is dropped", err)
	}
	var to interface{ Timeout() bool }
	if !errors.As(err, &to) || !to.Timeout() {
		t.Fatal("ErrTimeout must carry the Timeout marker")
	}
	var tr interface{ Transient() bool }
	if !errors.As(err, &tr) || !tr.Transient() {
		t.Fatal("ErrTimeout must be transient so the probe engine retries it")
	}
}

// TestLateReplyIsNotANotification: a reply that arrives after its exchange
// timed out is nobody's — it must not surface on
// Notifications() as if the switch had volunteered it, where a consumer that
// expects only PORT_STATUS (TestFailoverOverTCP in internal/experiments) would trip over it. It is
// dropped and counted instead. Nothing reads between exchanges, so the late
// reply is read by the next exchange, ahead of that exchange's own reply.
func TestLateReplyIsNotANotification(t *testing.T) {
	sw := switchsim.New(switchsim.Switch2(), switchsim.WithClock(fastClock()))
	inj := faults.NewInjector(faults.Config{Seed: 1, Delay: 1.0, DelayMean: 60 * time.Millisecond})
	addr := startFaultySwitch(t, sw, inj)
	c, err := DialOptions(addr, ControllerOptions{Timeout: 10 * time.Millisecond, Metrics: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Echo(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("Echo = %v, want ErrTimeout (the reply is held for 60 ms)", err)
	}
	c.timeout = 5 * time.Second // the next exchange waits out its own 60 ms
	if _, err := c.Echo(); err != nil {
		t.Fatalf("the exchange after the timeout: %v", err)
	}
	if n := c.tel.staleReplies.Value(); n != 1 {
		t.Fatalf("stale_replies = %d, want 1 (the late ECHO_REPLY)", n)
	}
	select {
	case msg := <-c.Notifications():
		t.Fatalf("late reply surfaced as a notification: %T", msg)
	default:
	}
}

// TestRejectionRacesTimeout drives an op's rejection against its barrier's
// deadline: a rejection read in time lands in the op's slot, one that comes
// after the deadline is read by the next exchange — another goroutine's —
// while the sender reports ErrTimeout. The agent delays a fifth of the
// messages by a millisecond or so against a 3 ms timeout while four
// goroutines take turns on the connection, which splits the ops about evenly
// between rejected and timed out. Every op must resolve with one of the three
// possible outcomes, and the race detector must stay quiet.
func TestRejectionRacesTimeout(t *testing.T) {
	sw := switchsim.New(switchsim.Switch2().WithTCAMCapacity(4), switchsim.WithClock(fastClock()))
	inj := faults.NewInjector(faults.Config{Seed: 3, Delay: 0.2, DelayMean: time.Millisecond, DelayStdDev: time.Millisecond})
	addr := startFaultySwitch(t, sw, inj)
	c, err := DialOptions(addr, ControllerOptions{Timeout: 3 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				err := c.FlowMod(testAdd(uint32(g*100 + i)))
				if err != nil && !errors.Is(err, switchsim.ErrTableFull) && !errors.Is(err, ErrTimeout) {
					t.Errorf("goroutine %d op %d: %v", g, i, err)
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestServerInjectedOverflowSurfacesTableFull(t *testing.T) {
	sw := switchsim.New(switchsim.Switch2(), switchsim.WithClock(fastClock()))
	inj := faults.NewInjector(faults.Config{Seed: 2, Overflow: 1.0})
	addr := startFaultySwitch(t, sw, inj)
	c, err := DialOptions(addr, ControllerOptions{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	err = c.FlowMod(testAdd(1))
	if !errors.Is(err, switchsim.ErrTableFull) {
		t.Fatalf("got %v, want an injected all-tables-full error", err)
	}
	if tcam, _, software := sw.RuleCount(); tcam+software != 0 {
		t.Fatalf("switch applied the rejected flow-mod (%d rules resident)", tcam+software)
	}
}

func TestServerInjectedResetClearsSwitch(t *testing.T) {
	sw := switchsim.New(switchsim.Switch2(), switchsim.WithClock(fastClock()))
	addr := startFaultySwitch(t, sw, faults.NewInjector(faults.Config{Seed: 3, Reset: 1.0}))
	c, err := DialOptions(addr, ControllerOptions{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for id := uint32(2); id <= 3; id++ {
		if err := sw.FlowMod(testAdd(id)); err != nil {
			t.Fatal(err)
		}
	}
	// The reset fires on the inbound flow-mod; the op still gets a reply.
	// It wipes the two rules installed above, leaving at most the op's own.
	_ = c.FlowMod(testAdd(1))
	if tcam, _, software := sw.RuleCount(); tcam+software > 1 {
		t.Fatalf("server-side reset fault never reset the switch: %d rules resident", tcam+software)
	}
}

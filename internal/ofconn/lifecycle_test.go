package ofconn

import (
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"tango/internal/openflow"
	"tango/internal/packet"
	"tango/internal/switchsim"
	"tango/internal/telemetry"
)

// leakCheck snapshots the goroutine count and returns a func that fails the
// test if the count has not returned to the baseline within a few seconds —
// the assertion that Shutdown releases every server goroutine.
func leakCheck(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				t.Fatalf("goroutine leak: %d before, %d after\n%s",
					before, runtime.NumGoroutine(), buf[:n])
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// controllerGoroutines counts the goroutines running a Controller method —
// what a controller owns, whatever else the process has in flight.
func controllerGoroutines() int {
	buf := make([]byte, 1<<20)
	n := 0
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "ofconn.(*Controller).") {
			n++
		}
	}
	return n
}

// TestControllerOwnsNoGoroutine: a dialled controller that has sent a batch
// and a probe runs no goroutine of its own — each caller read its reply
// itself — and neither does a closed one.
func TestControllerOwnsNoGoroutine(t *testing.T) {
	settle := func(want int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for controllerGoroutines() != want {
			if time.Now().After(deadline) {
				t.Fatalf("%d controller goroutines, want %d", controllerGoroutines(), want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	settle(0) // earlier tests' callers have returned
	c, _ := dialFlaky(t)
	if _, err := c.FlowModBatch([]*openflow.FlowMod{probeAdd(1), probeAdd(2)}); err != nil {
		t.Fatal(err)
	}
	data, err := packet.BuildProbe(packet.ProbeSpec{FlowID: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.SendProbe(data, 1); err != nil {
		t.Fatal(err)
	}
	if n := controllerGoroutines(); n != 0 {
		t.Fatalf("a controller in use owns %d goroutines, want 0", n)
	}
	c.Close()
	if n := controllerGoroutines(); n != 0 {
		t.Fatalf("a closed controller owns %d goroutines, want 0", n)
	}
}

// TestAsyncWindowOneSerial pins the satellite contract: AsyncWindow=1
// degenerates the flow-mod path to serial behaviour. Every op of a batch is
// its own window — its own write, its own barrier — so n ops cost n of each.
func TestAsyncWindowOneSerial(t *testing.T) {
	sw := switchsim.New(switchsim.Switch2(), switchsim.WithClock(fastClock()))
	addr := startSwitch(t, sw)
	reg := telemetry.NewRegistry()
	c, err := DialOptions(addr, ControllerOptions{AsyncWindow: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 9
	fms := make([]*openflow.FlowMod, n)
	for i := range fms {
		fms[i] = probeAdd(uint32(i))
	}
	errs, err := c.FlowModBatch(fms)
	if err != nil {
		t.Fatalf("FlowModBatch: %v", err)
	}
	for i, e := range errs {
		if e != nil {
			t.Fatalf("op %d: %v", i, e)
		}
	}
	for _, name := range []string{"ofconn.controller.async_flushes", "ofconn.controller.async_writes"} {
		if got := reg.Counter(name).Value(); got != n {
			t.Fatalf("%s = %d, want %d (one per op)", name, got, n)
		}
	}
	if got := c.pendingLen(); got != 0 {
		t.Fatalf("pending XIDs = %d, want 0", got)
	}
	flows, err := c.FlowStats()
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) != n {
		t.Fatalf("installed %d rules, want %d", len(flows), n)
	}
}

// TestAsyncWindowValidation rejects negative windows at construction and
// accepts an explicit override larger than the default.
func TestAsyncWindowValidation(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	if _, err := NewControllerOptions(client, ControllerOptions{AsyncWindow: -1}); err == nil {
		t.Fatal("AsyncWindow=-1 accepted, want error")
	} else if !strings.Contains(err.Error(), "negative") {
		t.Fatalf("error %q does not name the negative window", err)
	}

	sw := switchsim.New(switchsim.Switch2(), switchsim.WithClock(fastClock()))
	addr := startSwitch(t, sw)
	c, err := DialOptions(addr, ControllerOptions{AsyncWindow: 3 * asyncWindow})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.window != 3*asyncWindow {
		t.Fatalf("window = %d, want %d", c.window, 3*asyncWindow)
	}
	// Zero still selects the default.
	c2, err := DialOptions(addr, ControllerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.window != asyncWindow {
		t.Fatalf("default window = %d, want %d", c2.window, asyncWindow)
	}
}

// TestServerShutdownDrains is the graceful path: a server under live traffic
// shuts down within grace, Serve returns nil, in-flight operations either
// complete or fail with a connection error (never hang), and every server
// goroutine is released.
func TestServerShutdownDrains(t *testing.T) {
	check := leakCheck(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sw := switchsim.New(switchsim.Switch2(), switchsim.WithClock(fastClock()))
	srv := NewServer(ln, sw, ServeOptions{Metrics: telemetry.NewRegistry()})
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()

	c, err := DialOptions(srv.Addr().String(), ControllerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Live traffic across the shutdown: ops complete until the half-close
	// cuts the request stream, then fail fast with a connection error.
	opsDone := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			if err := c.FlowMod(probeAdd(uint32(i))); err != nil {
				opsDone <- err
				return
			}
		}
	}()
	time.Sleep(20 * time.Millisecond) // let some ops land

	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("Shutdown: %v (want graceful drain, not forced)", err)
	}
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("Serve after Shutdown: %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}
	select {
	case err := <-opsDone:
		if err == nil {
			t.Fatal("op loop ended without an error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight op hung across Shutdown: drain failed")
	}
	// Installed state survived: at least one op drained before the cut.
	if tcam, hw, sv := sw.RuleCount(); tcam+hw+sv == 0 {
		t.Fatal("no ops landed before shutdown")
	}
	// New connections are refused.
	if c2, err := DialOptions(srv.Addr().String(), ControllerOptions{}); err == nil {
		c2.Close()
		t.Fatal("dial after shutdown succeeded")
	}
	// Idempotent.
	if err := srv.Shutdown(time.Second); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
	c.Close()
	check()
}

// TestServerShutdownImmediate covers grace<=0: connections are force-closed,
// Shutdown still returns promptly with every goroutine released, and clients
// see connection errors rather than hangs.
func TestServerShutdownImmediate(t *testing.T) {
	check := leakCheck(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sw := switchsim.New(switchsim.Switch2(), switchsim.WithClock(fastClock()))
	srv := NewServer(ln, sw, ServeOptions{Metrics: telemetry.NewRegistry()})
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()

	c, err := DialOptions(srv.Addr().String(), ControllerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := srv.Shutdown(0); err != nil {
		t.Fatalf("Shutdown(0): %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	errc := make(chan error, 1)
	go func() { errc <- c.FlowMod(probeAdd(1)) }()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("op on force-closed server succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("op on force-closed server hung")
	}
	c.Close()
	check()
}

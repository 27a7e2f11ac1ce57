package experiments

import (
	"io"
	"log"
	"net"
	"runtime"
	"testing"
	"time"

	"tango/internal/core/probe"
	"tango/internal/core/sched"
	"tango/internal/flowtable"
	"tango/internal/ofconn"
	"tango/internal/openflow"
	"tango/internal/packet"
	"tango/internal/simclock"
	"tango/internal/switchsim"
	"tango/internal/telemetry"
)

// TestFailoverOverTCP runs §7.2's link-failure loop over real sockets: a
// controller holds OpenFlow connections to the three testbed switches, the
// s1–s2 link goes down, and the PORT_STATUS it raises is answered with
// Figure 10's LF reroute (its 400 flows and seed), scheduled by Tango
// against the live switches. Emulated latencies are compressed 10^4x into
// wall time.
func TestFailoverOverTCP(t *testing.T) {
	const flows = 400
	before := runtime.NumGoroutine()
	profiles := TestbedProfiles()
	reg := telemetry.NewRegistry()
	quiet := log.New(io.Discard, "", 0)
	switches := map[string]*switchsim.Switch{}
	ctrls := map[string]*ofconn.Controller{}
	var servers []*ofconn.Server
	for name, prof := range profiles {
		sw := switchsim.New(prof,
			switchsim.WithClock(&simclock.Real{Scale: 1e-4}),
			switchsim.WithSeed(5))
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := ofconn.NewServer(ln, sw, ofconn.ServeOptions{Logger: quiet, Metrics: reg})
		servers = append(servers, srv)
		go srv.Serve()
		c, err := ofconn.DialOptions(srv.Addr().String(), ofconn.ControllerOptions{Metrics: reg, Timeout: 10 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		switches[name] = sw
		ctrls[name] = c
	}
	defer func() {
		for _, c := range ctrls {
			c.Close()
		}
		for _, srv := range servers {
			srv.Shutdown(time.Second)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Fatalf("goroutine leak: %d before, %d after\n%s",
					before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()

	g, preload := LFScenario(flows, 1)
	ex := sched.EngineExecutor{}
	for name, c := range ctrls {
		e := probe.NewEngine(c)
		preloadRules(e, preload[name])
		ex[name] = e
	}

	// The event: port 2 on s1 (the s1–s2 link) goes down. The switch
	// flushes the notification ahead of the echo reply, so the echo reads
	// it on the way and it is queued by the time Echo returns.
	if !switches["s1"].SetPortDown(2, true) {
		t.Fatal("s1 has no port 2")
	}
	if _, err := ctrls["s1"].Echo(); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-ctrls["s1"].Notifications():
		ps, ok := msg.(*openflow.PortStatus)
		if !ok || ps.Desc.PortNo != 2 || ps.Desc.State&openflow.PortStateLinkDown == 0 {
			t.Fatalf("notification %#v, want PORT_STATUS for port 2 with LinkDown", msg)
		}
	default:
		t.Fatal("no PORT_STATUS ahead of the echo reply")
	}

	// The reroute: transit rules on s3 before each s1 modification.
	scheduler := &sched.Tango{DB: BuildScoreDB(profiles), SortPriorities: true, ExistingHigher: ExistingHigherFor(preload)}
	res, err := sched.Run(g, scheduler, ex, sched.RunOptions{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 0 || res.Makespan <= 0 {
		t.Fatalf("schedule left %d requests, makespan %v", g.Len(), res.Makespan)
	}

	stats, err := ctrls["s3"].FlowStats()
	if err != nil {
		t.Fatal(err)
	}
	transit := map[flowtable.Match]bool{}
	for _, fs := range stats {
		transit[fs.Match] = true
	}
	for f := 0; f < flows; f++ {
		if !transit[flowtable.ExactProbeMatch(uint32(10000+f))] {
			t.Fatalf("s3 holds %d rules, not transit flow %d's", len(stats), 10000+f)
		}
	}

	raw, err := packet.BuildProbe(packet.ProbeSpec{FlowID: 10000})
	if err != nil {
		t.Fatal(err)
	}
	if _, punted, err := ctrls["s3"].SendProbe(raw, 1); err != nil || punted {
		t.Fatalf("rerouted flow on s3: punted=%v err=%v, want forwarded", punted, err)
	}
}

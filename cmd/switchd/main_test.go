package main

import (
	"io"
	"log"
	"runtime"
	"testing"
	"time"

	"tango/internal/fleet"
	"tango/internal/ofconn"
	"tango/internal/switchsim"
	"tango/internal/telemetry"
)

// TestProfileByName checks that every -profile value the flag's help lists
// selects its vendor model.
func TestProfileByName(t *testing.T) {
	want := map[string]string{
		"ovs":     switchsim.OVS().Name,
		"switch1": switchsim.Switch1().Name,
		"switch2": switchsim.Switch2().Name,
		"switch3": switchsim.Switch3().Name,
		"fig5":    switchsim.FigureFiveSwitch().Name,
	}
	for name, prof := range want {
		p, err := switchsim.ProfileByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Name != prof {
			t.Fatalf("%s: profile %q, want %q", name, p.Name, prof)
		}
	}
	if _, err := switchsim.ProfileByName("nope"); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

func TestBuildServerRejectsBadConfig(t *testing.T) {
	if _, err := buildServer(config{listen: "127.0.0.1:0", profile: "nope"}, ofconn.ServeOptions{}); err == nil {
		t.Fatal("bad profile accepted")
	}
	if _, err := buildServer(config{listen: "127.0.0.1:0", profile: "switch1", faultSpec: "bogus"}, ofconn.ServeOptions{}); err == nil {
		t.Fatal("bad fault spec accepted")
	}
}

// TestSwitchdFleetLifecycle is the daemon's lifecycle under a fleet: three
// switchd servers come up, fleet.Run probes all of them over TCP, and
// graceful shutdown drains every server — Serve returns nil, a later round
// fails on every member and each says why, and no server goroutine leaks.
func TestSwitchdFleetLifecycle(t *testing.T) {
	before := runtime.NumGoroutine()

	quiet := ofconn.ServeOptions{
		Logger:  log.New(io.Discard, "", 0),
		Metrics: telemetry.NewRegistry(),
	}
	var servers []*ofconn.Server
	var members []fleet.TCPMember
	serveErrs := make(chan error, 3)
	for _, cfg := range []config{
		{listen: "127.0.0.1:0", profile: "switch1", scale: 1e-6, seed: 1},
		{listen: "127.0.0.1:0", profile: "switch2", scale: 1e-6, seed: 2},
		{listen: "127.0.0.1:0", profile: "ovs", scale: 1e-6, seed: 3},
	} {
		srv, err := buildServer(cfg, quiet)
		if err != nil {
			t.Fatalf("%s: %v", cfg.profile, err)
		}
		servers = append(servers, srv)
		go func() { serveErrs <- srv.Serve() }()
		c, err := ofconn.DialOptions(srv.Addr().String(), ofconn.ControllerOptions{})
		if err != nil {
			t.Fatalf("connect %s: %v", cfg.profile, err)
		}
		defer c.Close()
		members = append(members, fleet.TCPMember{Name: cfg.profile, Ctrl: c})
	}
	round := func() *fleet.Result {
		t.Helper()
		res, err := fleet.Run(fleet.Options{TCP: members, Rounds: 1})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	if res := round(); res.ScoreCards != 3 || res.InferErrs != 0 {
		t.Fatalf("score cards = %d, errors = %d, want 3 and 0", res.ScoreCards, res.InferErrs)
	}

	for i, srv := range servers {
		if err := srv.Shutdown(5 * time.Second); err != nil {
			t.Fatalf("server %d Shutdown: %v (want graceful drain)", i, err)
		}
	}
	for range servers {
		select {
		case err := <-serveErrs:
			if err != nil {
				t.Fatalf("Serve after Shutdown: %v, want nil", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Serve did not return after Shutdown")
		}
	}
	// The drained daemons refuse further work, and every member says why.
	for _, s := range round().PerSwitch {
		if s.LastErr == "" {
			t.Fatalf("%s: round against a shut-down server left no error", s.Name)
		}
	}
	for _, m := range members {
		m.Ctrl.Close()
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

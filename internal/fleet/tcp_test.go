package fleet

import (
	"io"
	"log"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"tango/internal/faults"
	"tango/internal/ofconn"
	"tango/internal/simclock"
	"tango/internal/switchsim"
	"tango/internal/telemetry"
)

// TestFleetMixedTCP runs a mixed fleet: simulated members alongside real
// TCP members served in-process through the cmd/switchd serve path. TCP
// members complete a cost-fitting inference each round and contribute
// sentinel RTTs; Close drains the servers cleanly.
func TestFleetMixedTCP(t *testing.T) {
	tcp, err := SpawnSimTCP(2, 7, 1e-6, ofconn.ControllerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	if tcp.Len() != 2 {
		t.Fatalf("spawned %d servers, want 2", tcp.Len())
	}

	o := Options{
		Switches: 3,
		Rounds:   1,
		Seed:     7,
		MaxRules: 256,
		TCP:      tcp.Fleet,
		Registry: telemetry.NewRegistry(),
		Flight:   telemetry.NewFlightRecorder(64),
	}
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Switches != 3 || res.TCPSwitches != 2 {
		t.Fatalf("members = %d sim + %d tcp, want 3 + 2", res.Switches, res.TCPSwitches)
	}
	if res.InferErrs != 0 {
		t.Fatalf("inference errors: %d", res.InferErrs)
	}
	if res.Inferences != 5 {
		t.Fatalf("inferences = %d, want 5", res.Inferences)
	}
	// Round 0 cost-fits every member: 3 sim (costEvery) + 2 tcp (always).
	if res.ScoreCards != 5 {
		t.Fatalf("score cards = %d, want 5", res.ScoreCards)
	}
	tcpSeen := 0
	for _, s := range res.PerSwitch {
		if strings.HasPrefix(s.Name, "tcp-") {
			tcpSeen++
			if !s.TCP {
				t.Fatalf("%s not marked TCP", s.Name)
			}
			if s.Probes == 0 || s.FlowMods == 0 {
				t.Fatalf("%s: no ops recorded (%d probes, %d flow-mods)", s.Name, s.Probes, s.FlowMods)
			}
		}
	}
	if tcpSeen != 2 {
		t.Fatalf("tcp summaries = %d, want 2", tcpSeen)
	}
	// The flight recorder carries one track per member, sim and TCP alike.
	for _, s := range res.PerSwitch {
		if len(o.Flight.Track(s.Name).Samples()) == 0 {
			t.Fatalf("no flight samples for %s", s.Name)
		}
	}
}

// failingFleet runs one round over three TCP members, two of whose
// servers drop every message, and returns each member's summary.
func failingFleet(t *testing.T, workers int) []SwitchSummary {
	t.Helper()
	member := func(name string, inj *faults.Injector) TCPMember {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		sw := switchsim.New(switchsim.Switch2(), switchsim.WithClock(&simclock.Real{Scale: 1e-6}))
		srv := ofconn.NewServer(ln, sw, ofconn.ServeOptions{Faults: inj, Logger: log.New(io.Discard, "", 0)})
		go srv.Serve()
		t.Cleanup(func() { _ = srv.Shutdown(time.Second) })
		c, err := ofconn.DialOptions(srv.Addr().String(), ofconn.ControllerOptions{Timeout: 50 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return TCPMember{Name: name, Ctrl: c}
	}
	res, err := Run(Options{
		Workers: workers,
		Rounds:  1,
		TCP: []TCPMember{
			member("dead-a", faults.NewInjector(faults.Config{Seed: 4, Drop: 1.0})),
			member("alive", nil),
			member("dead-b", faults.NewInjector(faults.Config{Seed: 4, Drop: 1.0})),
		},
		Registry: telemetry.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.PerSwitch
}

// TestFleetKeepsEachMemberFailure: when two TCP members both fail, each one
// keeps its own cause — the timeout — while the healthy member beside them
// still fits its card.
func TestFleetKeepsEachMemberFailure(t *testing.T) {
	for _, s := range failingFleet(t, 1) {
		if s.Name == "alive" {
			if s.ScoreCards != 1 || s.Errs != 0 || s.LastErr != "" {
				t.Fatalf("healthy member %+v, want a card and no error", s)
			}
		} else if !strings.Contains(s.LastErr, ofconn.ErrTimeout.Error()) {
			t.Fatalf("%s LastErr = %q, want the timeout", s.Name, s.LastErr)
		}
	}
}

// TestFleetMemberFailuresDeterministic: which worker ran which member does
// not change what each member reports.
func TestFleetMemberFailuresDeterministic(t *testing.T) {
	var lastErrs [][]string
	for _, workers := range []int{1, 3} {
		var errs []string
		for _, s := range failingFleet(t, workers) {
			errs = append(errs, s.Name+": "+s.LastErr)
		}
		lastErrs = append(lastErrs, errs)
	}
	if !reflect.DeepEqual(lastErrs[0], lastErrs[1]) {
		t.Fatalf("LastErr differs by worker count:\n  1: %q\n  3: %q", lastErrs[0], lastErrs[1])
	}
}

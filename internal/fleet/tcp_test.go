package fleet

import (
	"strings"
	"testing"

	"tango/internal/ofconn"
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
	if tracks := o.Flight.Tracks(); len(tracks) != 5 {
		t.Fatalf("flight tracks = %v, want 5", tracks)
	}
}

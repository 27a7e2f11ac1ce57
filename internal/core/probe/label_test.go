package probe

// label_test.go covers the engine's per-switch telemetry wiring: the
// auto-applied device label, the probe.rtt_ns{switch=...} histogram child,
// and the flight-recorder track fed by Probe.

import (
	"testing"
	"time"

	"tango/internal/switchsim"
	"tango/internal/telemetry"
)

func TestEngineAutoLabelFeedsVecAndFlight(t *testing.T) {
	reg := telemetry.NewRegistry()
	fr := telemetry.NewFlightRecorder(16)
	s := switchsim.New(switchsim.Switch2())
	e := NewEngine(SimDevice{S: s})
	e.SetTelemetry(reg, nil, fr)

	if e.Label() != "Switch#2" && e.Label() != s.Profile().Name {
		t.Fatalf("auto label = %q, want profile name %q", e.Label(), s.Profile().Name)
	}

	if err := e.Install(1, 100); err != nil {
		t.Fatal(err)
	}
	const n = 5
	for i := 0; i < n; i++ {
		if _, _, err := e.Probe(1); err != nil {
			t.Fatal(err)
		}
	}

	snap := reg.Snapshot()
	agg, ok := snap.Histograms["probe.rtt_ns"]
	if !ok || agg.Count != n {
		t.Fatalf("aggregate rtt histogram = %+v", agg)
	}
	child, ok := snap.Histograms[telemetry.ChildName("probe.rtt_ns", "switch", e.Label())]
	if !ok || child.Count != n {
		t.Fatalf("labeled rtt child = %+v (snapshot keys %v)", child, len(snap.Histograms))
	}

	samples := fr.Track(e.Label()).Samples()
	if len(samples) != n {
		t.Fatalf("flight samples = %d, want %d", len(samples), n)
	}
	last := samples[n-1]
	if last.Seq != n || last.FlowID != 1 || last.RTT <= 0 || last.Punted {
		t.Fatalf("flight sample = %+v", last)
	}
	if last.Virt.IsZero() || last.Wall.IsZero() {
		t.Fatalf("flight sample missing clock stamps: %+v", last)
	}
	// The virtual stamp rides the device clock, not the wall clock.
	if !last.Virt.Equal(s.Now()) {
		t.Fatalf("virt stamp %v != device now %v", last.Virt, s.Now())
	}
}

func TestEngineSetLabelRebindAndClear(t *testing.T) {
	reg := telemetry.NewRegistry()
	fr := telemetry.NewFlightRecorder(8)
	s := switchsim.New(switchsim.OVS())
	e := NewEngine(SimDevice{S: s})
	e.SetTelemetry(reg, nil, fr)

	e.setLabel("member-a")
	if err := e.Install(1, 100); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Probe(1); err != nil {
		t.Fatal(err)
	}
	if got := len(fr.Track("member-a").Samples()); got != 1 {
		t.Fatalf("member-a flight samples = %d, want 1", got)
	}

	e.setLabel("")
	if _, _, err := e.Probe(1); err != nil {
		t.Fatal(err)
	}
	if got := len(fr.Track("member-a").Samples()); got != 1 {
		t.Fatalf("unlabeled probe still recorded into old track: %d samples", got)
	}
	snap := reg.Snapshot()
	if snap.Histograms["probe.rtt_ns"].Count != 2 {
		t.Fatalf("aggregate count = %d, want 2", snap.Histograms["probe.rtt_ns"].Count)
	}
	if snap.Histograms[telemetry.ChildName("probe.rtt_ns", "switch", "member-a")].Count != 1 {
		t.Fatal("labeled child should have exactly the labeled probe")
	}
}

func TestEngineLabelNilTelemetryIsFree(t *testing.T) {
	s := switchsim.New(switchsim.Switch1())
	e := NewEngine(SimDevice{S: s}) // no registry, no flight recorder installed
	e.setLabel("anything")
	if err := e.Install(1, 100); err != nil {
		t.Fatal(err)
	}
	rtt, _, err := e.Probe(1)
	if err != nil || rtt <= 0 {
		t.Fatalf("probe under nil telemetry: rtt=%v err=%v", rtt, err)
	}
	e.SetTelemetry(nil, nil, nil)
	if _, _, err := e.Probe(1); err != nil {
		t.Fatal(err)
	}
}

func TestEngineFlightDefaultPickup(t *testing.T) {
	old := telemetry.DefaultFlight()
	defer telemetry.SetDefaultFlight(old)
	fr := telemetry.NewFlightRecorder(4)
	telemetry.SetDefaultFlight(fr)

	s := switchsim.New(switchsim.Switch2())
	e := NewEngine(SimDevice{S: s})
	if err := e.Install(1, 100); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Probe(1); err != nil {
		t.Fatal(err)
	}
	name := s.Profile().Name
	if got := len(fr.Track(name).Samples()); got != 1 {
		t.Fatalf("default flight recorder samples = %d, want 1", got)
	}
	if got := fr.Track(name).Samples()[0]; got.RTT <= 0 || got.Wall.Before(time.Now().Add(-time.Minute)) {
		t.Fatalf("default flight sample = %+v", got)
	}
}

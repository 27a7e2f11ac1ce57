package ofconn_test

import (
	"net"
	"reflect"
	"testing"
	"time"

	"tango/internal/conformance"
	"tango/internal/core/infer"
	"tango/internal/core/probe"
	"tango/internal/ofconn"
	"tango/internal/switchsim"
	"tango/internal/telemetry"
)

// run is what one inspection left behind: the model, the switch's virtual
// time under probing and counters, and the engine's op ledger.
type run struct {
	model   *infer.Model
	virtual time.Duration
	sw      switchsim.Stats
	eng     probe.EngineStats
}

// inspect runs the policy-skipped pipeline on dev, which drives sw.
func inspect(t *testing.T, sw *switchsim.Switch, dev probe.Device, name string, seed int64) run {
	t.Helper()
	e := probe.NewEngine(dev)
	t0 := sw.Now()
	m, err := infer.Inspect(e, infer.InspectOptions{
		Name: name,
		Size: infer.SizeOptions{Seed: seed, MaxRules: 4096},
		Skip: infer.PhasePolicy,
	})
	if err != nil {
		t.Fatal(err)
	}
	return run{m, sw.Now().Sub(t0), sw.Stats(), e.Stats()}
}

// TestInspectOverWireMatchesSim holds the socket path to the emulator: each
// switch is inspected once on SimDevice and once through NewServer +
// DialOptions, the controller measuring on the switch's own virtual clock, and
// the two runs must agree exactly — model, virtual time, switch counters and
// engine ledger. Algorithm 1 sends one op sequence on every device, so the
// channel adds nothing a measurement sees. The policy phase is skipped: its
// traffic bursts are one call in-process and n round trips on the wire, which
// charge virtual time differently. Seeds and budget are TestInspectGolden's.
func TestInspectOverWireMatchesSim(t *testing.T) {
	golden := conformance.GenerateSpecs(16, 1)
	profiles := []switchsim.Profile{
		switchsim.OVS(), switchsim.Switch1(), switchsim.Switch2(), switchsim.Switch3(),
		golden[0].Profile, golden[8].Profile,
	}
	for _, s := range conformance.GenerateSpecs(24, 41) {
		profiles = append(profiles, s.Profile)
	}
	const seed = 7
	for i, prof := range profiles {
		swSeed, inspectSeed := seed+int64(i), seed+101*int64(i+1)
		t.Run(prof.Name, func(t *testing.T) {
			sim := switchsim.New(prof, switchsim.WithSeed(swSeed))
			want := inspect(t, sim, probe.SimDevice{S: sim}, prof.Name, inspectSeed)

			sw := switchsim.New(prof, switchsim.WithSeed(swSeed))
			ctrl := serve(t, sw)
			ofconn.SetClock(ctrl, sw.Clock())
			got := inspect(t, sw, ctrl, prof.Name, inspectSeed)

			if !reflect.DeepEqual(got.model, want.model) {
				t.Errorf("model over the wire\n got %v\nwant %v", got.model, want.model)
			}
			if got.virtual != want.virtual {
				t.Errorf("virtual time %d over the wire, %d on SimDevice", got.virtual, want.virtual)
			}
			if got.sw != want.sw {
				t.Errorf("switch stats %+v over the wire, %+v on SimDevice", got.sw, want.sw)
			}
			if got.eng != want.eng {
				t.Errorf("engine stats %+v over the wire, %+v on SimDevice", got.eng, want.eng)
			}
		})
	}
}

// serve exposes sw on a loopback listener and dials it; both are closed when
// the test ends.
func serve(t *testing.T, sw *switchsim.Switch) *ofconn.Controller {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ofconn.NewServer(ln, sw, ofconn.ServeOptions{Metrics: telemetry.NewRegistry()})
	go srv.Serve()
	t.Cleanup(func() {
		if err := srv.Shutdown(time.Second); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	ctrl, err := ofconn.DialOptions(srv.Addr().String(), ofconn.ControllerOptions{Metrics: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ctrl.Close() })
	return ctrl
}

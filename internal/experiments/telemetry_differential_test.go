package experiments

import (
	"bytes"
	"testing"

	"tango/internal/telemetry"
)

// TestTelemetryDifferential is the observer-effect gate: inference results
// must be byte-identical whether the process-wide telemetry defaults are nil
// (the uninstrumented configuration every test and library consumer gets) or
// fully installed (registry + tracer + flight recorder, as `tangobench
// -metrics-out -trace-out -flight-out` runs). Probing drives everything off
// the emulated switches' virtual clocks and seeded RNGs, so instrumentation
// — which only reads those clocks and copies samples aside — must never
// shift an estimate, census count, or policy verdict. A divergence means a
// record path leaked into the measured timeline (e.g. a wall-clock sleep or
// an extra virtual-clock advance on the probe path).
func TestTelemetryDifferential(t *testing.T) {
	oldReg, oldTr := telemetry.Default(), telemetry.DefaultTracer()
	oldFr := telemetry.DefaultFlight()
	defer func() {
		telemetry.SetDefault(oldReg, oldTr)
		telemetry.SetDefaultFlight(oldFr)
	}()

	type table struct {
		name string
		run  func(Options) *Table
		// wantProbes: the run drives probe engines, so the instrumented pass
		// must show probe counters and flight tracks. Table1 installs rules
		// directly on the switches, so only the emulator counters move.
		wantProbes bool
	}
	tables := []table{
		{"Table1", Table1, false},
		{"SizeAccuracy", SizeAccuracy, true},
		{"PolicyAccuracy", PolicyAccuracy, true},
	}
	// Subtests stay sequential: they flip the process-wide defaults.
	for _, tb := range tables {
		tb := tb
		t.Run(tb.name, func(t *testing.T) {
			telemetry.SetDefault(nil, nil)
			telemetry.SetDefaultFlight(nil)
			bare := tb.run(Options{}).String()

			reg := telemetry.NewRegistry()
			tr := telemetry.NewTracer(nil)
			fr := telemetry.NewFlightRecorder(0)
			telemetry.SetDefault(reg, tr)
			telemetry.SetDefaultFlight(fr)
			instrumented := tb.run(Options{}).String()

			if bare != instrumented {
				t.Errorf("%s diverges with telemetry installed:\nbare:\n%s\ninstrumented:\n%s",
					tb.name, bare, instrumented)
			}
			// The instrumented run must actually have been observed — a
			// passing diff with an empty registry would prove nothing.
			snap := reg.Snapshot()
			if snap.Counters["switchsim.flowmods"] == 0 {
				t.Error("instrumented run recorded no flow-mods; differential proves nothing")
			}
			if tb.wantProbes {
				if snap.Counters["probe.probes_sent"] == 0 {
					t.Error("instrumented run recorded no probes")
				}
				var flight bytes.Buffer
				if err := fr.WriteJSONL(&flight); err != nil || flight.Len() == 0 {
					t.Errorf("instrumented run recorded no flight samples (err %v)", err)
				}
			}
		})
	}
}

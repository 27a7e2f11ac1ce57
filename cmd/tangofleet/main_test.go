package main

import (
	"io"
	"log"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"tango/internal/fleet"
	"tango/internal/ofconn"
	"tango/internal/telemetry"
)

// TestTangofleetSmoke is the service smoke test from the issue: spin up a
// small mixed fleet — including real TCP members through the switchd serve
// path — run a fixed-round inference batch through the exact code path main
// drives, and shut everything down without leaking goroutines.
func TestTangofleetSmoke(t *testing.T) {
	before := runtime.NumGoroutine()

	quiet := log.New(io.Discard, "", 0)
	cfg := fleetConfig{
		switches: 3,
		tcp:      2,
		rounds:   1,
		seed:     5,
		maxRules: 256,
		tcpScale: 1e-6,
	}
	res, err := execute(cfg, nil, quiet)
	if err != nil {
		t.Fatal(err)
	}
	if res.Switches != 3 || res.TCPSwitches != 2 {
		t.Fatalf("members = %d sim + %d tcp, want 3 + 2", res.Switches, res.TCPSwitches)
	}
	if res.InferErrs != 0 {
		t.Fatalf("inference errors: %d", res.InferErrs)
	}
	if res.Inferences != 5 || res.ScoreCards != 5 {
		t.Fatalf("inferences = %d, score cards = %d, want 5 each", res.Inferences, res.ScoreCards)
	}
	if res.SwitchesPerSec <= 0 || res.FlowModsPerSec <= 0 {
		t.Fatalf("rates not populated: %v switches/sec, %v flow-mods/sec",
			res.SwitchesPerSec, res.FlowModsPerSec)
	}

	// TCP servers are gone: the deferred Close inside execute drained them.
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

// TestTangofleetContinuousStops exercises the continuous-service path: the
// fleet loops until stop closes, then execute returns the final fold.
func TestTangofleetContinuousStops(t *testing.T) {
	quiet := log.New(io.Discard, "", 0)
	cfg := fleetConfig{
		switches: 2,
		seed:     11,
		maxRules: 256,
		interval: time.Millisecond, // exercise the progress ticker too
	}
	stop := make(chan struct{})
	go func() {
		time.Sleep(100 * time.Millisecond)
		close(stop)
	}()
	res, err := execute(cfg, stop, quiet)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds < 1 {
		t.Fatalf("service stopped after %d rounds, want >= 1", res.Rounds)
	}
	if res.Inferences < res.Rounds*cfg.switches {
		t.Fatalf("inferences = %d over %d rounds of %d switches", res.Inferences, res.Rounds, cfg.switches)
	}
}

// TestPrintResultNamesFailingMembers: a TCP member whose connection is
// already closed fails every step, and the summary names it, its kind, its
// error count and why; the healthy simulated member gets no such line.
func TestPrintResultNamesFailingMembers(t *testing.T) {
	st, err := fleet.SpawnSimTCP(1, 5, 1e-6, ofconn.ControllerOptions{Timeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	res, err := fleet.Run(fleet.Options{
		Switches: 1, Rounds: 1, Seed: 5, MaxRules: 256,
		TCP: st.Fleet, Registry: telemetry.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	printResult(&out, res)
	want := regexp.MustCompile(`(?m)^member tcp-000 \(tcp\): [1-9][0-9]* errors, last: \S.*$`)
	if !want.MatchString(out.String()) || strings.Contains(out.String(), "sim-000") {
		t.Fatalf("summary does not name exactly the failing member:\n%s", out.String())
	}
}

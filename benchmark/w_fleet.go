package main

import (
	"fmt"

	"tango/internal/fleet"
	"tango/internal/ofconn"
)

// fleet_mixed: the continuous-inference service sized to the sandbox. One op
// is fleet.Run over 30 simulated members and 2 real-TCP members for 2
// rounds — the only workload that runs inference concurrently, mixes
// simulated and TCP members, and goes through fleet's stride/fold pool,
// per-member registries and flight tracks.

const (
	fleetSims   = 30
	fleetTCP    = 2
	fleetRounds = 2
)

type fleetMixed struct {
	seed int64
	m    *meter
	tcp  *fleet.SimTCP
	// ref is the set-up run's ledger; every member's schedule is a function
	// of the seed, so every op must reproduce it.
	ref fleetCounts
}

// fleetCounts is what a fleet run did, wall-clock figures aside.
type fleetCounts struct {
	inferences, scoreCards int
	flowMods, probes       int64
}

func (w *fleetMixed) cycle() int { return 1 }

func (w *fleetMixed) setup(seed int64, m *meter, _ *tracer) error {
	w.seed, w.m = seed, m
	tcp, err := fleet.SpawnSimTCP(fleetTCP, seed, channelScale, ofconn.ControllerOptions{})
	if err != nil {
		return err
	}
	w.tcp = tcp
	r, err := fleet.Run(w.options())
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	w.ref = fleetCounts{r.Inferences, r.ScoreCards, r.FlowMods, r.Probes}
	return nil
}

func (w *fleetMixed) options() fleet.Options {
	return fleet.Options{Switches: fleetSims, Rounds: fleetRounds, Workers: genWorkers(), Seed: w.seed, TCP: w.tcp.Fleet}
}

func (w *fleetMixed) op(int) (float64, error) {
	w.m.start()
	r, err := fleet.Run(w.options())
	w.m.stop()
	if err != nil {
		return 0, err
	}
	if r.InferErrs != 0 {
		return float64(r.Inferences), fmt.Errorf("%d of %d inferences failed", r.InferErrs, r.Inferences+r.InferErrs)
	}
	if n := r.Switches + r.TCPSwitches; n != fleetSims+fleetTCP {
		return float64(r.Inferences), fmt.Errorf("fleet ran %d members, want %d", n, fleetSims+fleetTCP)
	}
	if got := (fleetCounts{r.Inferences, r.ScoreCards, r.FlowMods, r.Probes}); got != w.ref {
		return float64(r.Inferences), fmt.Errorf("run did %+v, the reference run %+v", got, w.ref)
	}
	return float64(r.Inferences), nil
}

func (w *fleetMixed) finish() []error {
	if w.tcp != nil {
		w.tcp.Close()
	}
	return nil
}

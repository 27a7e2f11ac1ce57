// Command tangofleet runs the continuous-inference controller service: a
// fleet of emulated switches — in-process simulated members plus optional
// real-TCP members served through the switchd path — continuously probed,
// inferred, and re-inferred on a sharded worker pool (see internal/fleet).
//
// Usage:
//
//	tangofleet -switches 256 -tcp 8 -workers 8            # run until SIGINT
//	tangofleet -switches 64 -rounds 4                     # fixed-round batch
//	tangofleet -switches 256 -telemetry 127.0.0.1:8080    # live HTTP exporter
//
// With -rounds 0 (the default) the service loops until SIGINT/SIGTERM and
// -interval logs periodic progress; with -rounds N it executes N rounds and
// exits. Either way the final fold — switches inferred, flow-mods/sec, p99
// probe RTT — is printed on exit and the telemetry exports are flushed.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tango/internal/fleet"
	"tango/internal/ofconn"
	"tango/internal/telemetry"
)

// fleetConfig is the service configuration assembled from flags; the smoke
// test drives execute with it directly.
type fleetConfig struct {
	switches    int
	tcp         int
	workers     int
	rounds      int
	seed        int64
	maxRules    int
	probeRate   float64
	maxInflight int
	tcpScale    float64
	interval    time.Duration
}

// execute runs the fleet described by cfg: fixed rounds when cfg.rounds > 0,
// otherwise the continuous service until stop closes. TCP members are
// spawned in-process (SpawnSimTCP) and torn down — gracefully, draining
// in-flight ops — before return.
func execute(cfg fleetConfig, stop <-chan struct{}, lg *log.Logger) (*fleet.Result, error) {
	var tcp []fleet.TCPMember
	if cfg.tcp > 0 {
		st, err := fleet.SpawnSimTCP(cfg.tcp, cfg.seed, cfg.tcpScale, ofconn.ControllerOptions{})
		if err != nil {
			return nil, err
		}
		defer st.Close()
		tcp = st.Fleet
		lg.Printf("tangofleet: %d TCP members up", st.Len())
	}
	o := fleet.Options{
		Switches:    cfg.switches,
		Workers:     cfg.workers,
		Rounds:      cfg.rounds,
		Seed:        cfg.seed,
		MaxRules:    cfg.maxRules,
		ProbeRate:   cfg.probeRate,
		MaxInflight: cfg.maxInflight,
		TCP:         tcp,
	}
	if cfg.rounds > 0 {
		return fleet.Run(o)
	}
	s, err := fleet.Start(o)
	if err != nil {
		return nil, err
	}
	lg.Printf("tangofleet: %d members, continuous inference (SIGINT to stop)", s.Members())
	var tick <-chan time.Time
	if cfg.interval > 0 {
		t := time.NewTicker(cfg.interval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-stop:
			return s.Stop(), nil
		case <-tick:
			lg.Printf("tangofleet: %d rounds complete", s.Rounds())
		}
	}
}

func main() {
	var cfg fleetConfig
	flag.IntVar(&cfg.switches, "switches", 256, "simulated fleet members")
	flag.IntVar(&cfg.tcp, "tcp", 0, "real-TCP fleet members (in-process switchd servers)")
	flag.IntVar(&cfg.workers, "workers", 0, "shard worker pool size (0 = GOMAXPROCS)")
	flag.IntVar(&cfg.rounds, "rounds", 0, "inference rounds to run (0 = continuous until SIGINT)")
	flag.Int64Var(&cfg.seed, "seed", 42, "fleet RNG seed")
	flag.IntVar(&cfg.maxRules, "max-rules", 1024, "probe-rule cap per size-inference round")
	flag.Float64Var(&cfg.probeRate, "probe-rate", 0, "per-switch probe budget in probes/sec (0 = unlimited)")
	flag.IntVar(&cfg.maxInflight, "max-inflight", 0, "global cap on members mid-round (0 = unbounded)")
	flag.Float64Var(&cfg.tcpScale, "tcp-scale", 1e-6, "wall-time scale for TCP members' emulated latencies")
	flag.DurationVar(&cfg.interval, "interval", 10*time.Second, "progress log interval in continuous mode")
	var tcli telemetry.CLI
	tcli.BindFlags(flag.CommandLine)
	flag.Parse()

	flush, err := tcli.Setup()
	if err != nil {
		log.Fatalf("tangofleet: %v", err)
	}
	if tcli.Addr != "" {
		log.Printf("tangofleet: telemetry on http://%s/", tcli.Addr)
	}

	stop := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		log.Printf("tangofleet: %v: stopping after the current round", s)
		close(stop)
	}()

	res, err := execute(cfg, stop, log.Default())
	if ferr := flush(); ferr != nil {
		log.Printf("tangofleet: telemetry flush: %v", ferr)
	}
	if err != nil {
		log.Fatalf("tangofleet: %v", err)
	}
	printResult(os.Stdout, res)
}

// printResult writes the human-facing fold summary, then one line per member
// that had errors, with the last one.
func printResult(w io.Writer, r *fleet.Result) {
	fmt.Fprintf(w, "fleet: %d switches (%d sim + %d tcp), %d workers, %d rounds in %v\n",
		r.Switches+r.TCPSwitches, r.Switches, r.TCPSwitches, r.Workers, r.Rounds, r.Wall.Round(time.Millisecond))
	fmt.Fprintf(w, "inference: %d completed (%.1f switches/sec), %d errors, %d score cards\n",
		r.Inferences, r.SwitchesPerSec, r.InferErrs, r.ScoreCards)
	fmt.Fprintf(w, "ops: %d flow-mods (%.0f/sec), %d probes (%d punted)\n",
		r.FlowMods, r.FlowModsPerSec, r.Probes, r.Punted)
	fmt.Fprintf(w, "probe rtt: p50 %v, p99 %v over %d samples\n",
		r.P50ProbeRTT, r.P99ProbeRTT, r.RTTSamples)
	if r.Throttles > 0 {
		fmt.Fprintf(w, "pacing: %d throttled admissions, %v total wait\n", r.Throttles, r.ThrottleWait)
	}
	for _, s := range r.PerSwitch {
		if s.Errs == 0 {
			continue
		}
		kind := "sim"
		if s.TCP {
			kind = "tcp"
		}
		fmt.Fprintf(w, "member %s (%s): %d errors, last: %s\n", s.Name, kind, s.Errs, s.LastErr)
	}
}

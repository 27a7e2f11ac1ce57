// Command switchd runs an emulated OpenFlow switch on a TCP listener so
// that controllers — including Tango's own probing engine — can exercise
// the full wire protocol against it.
//
// Usage:
//
//	switchd -listen :6633 -profile switch1 -scale 0.01
//
// The -scale flag compresses the emulated latencies into wall time (0.01
// turns a simulated 6 ms flow-mod into 60 µs) so interactive probing remains
// fast while relative magnitudes — which is all Tango's inference needs —
// are preserved.
//
// SIGINT/SIGTERM trigger a graceful shutdown: the listener closes, open
// connections drain their in-flight operation (replies still go out), and
// the telemetry exports flush before exit.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tango/internal/faults"
	"tango/internal/ofconn"
	"tango/internal/simclock"
	"tango/internal/switchsim"
	"tango/internal/telemetry"
)

// shutdownGrace bounds how long a signal-initiated shutdown waits for open
// connections to drain before force-closing them.
const shutdownGrace = 5 * time.Second

// config is the switch-daemon configuration assembled from flags; the
// lifecycle tests build servers from it directly.
type config struct {
	listen       string
	profile      string
	scale        float64
	defaultRoute bool
	seed         int64
	faultSpec    string
}

// buildServer constructs the emulated switch and its listener-bound server.
// The caller runs Serve and owns Shutdown.
func buildServer(cfg config, serveOpts ofconn.ServeOptions) (*ofconn.Server, error) {
	prof, err := switchsim.ProfileByName(cfg.profile)
	if err != nil {
		return nil, fmt.Errorf("switchd: %w", err)
	}
	faultCfg, err := faults.ParseSpec(cfg.faultSpec)
	if err != nil {
		return nil, fmt.Errorf("switchd: -faults: %w", err)
	}
	opts := []switchsim.Option{
		switchsim.WithClock(&simclock.Real{Scale: cfg.scale}),
		switchsim.WithSeed(cfg.seed),
	}
	if cfg.defaultRoute {
		opts = append(opts, switchsim.WithDefaultRoute())
	}
	sw := switchsim.New(prof, opts...)
	serveOpts.Faults = faults.NewInjector(faultCfg)
	ln, err := net.Listen("tcp", cfg.listen)
	if err != nil {
		return nil, fmt.Errorf("switchd: %w", err)
	}
	return ofconn.NewServer(ln, sw, serveOpts), nil
}

func main() {
	var cfg config
	flag.StringVar(&cfg.listen, "listen", "127.0.0.1:6633", "address to listen on")
	flag.StringVar(&cfg.profile, "profile", "switch1", "switch profile: ovs, switch1, switch2, switch3, fig5")
	flag.Float64Var(&cfg.scale, "scale", 0.01, "wall-time scale for emulated latencies")
	flag.BoolVar(&cfg.defaultRoute, "default-route", false, "pre-install the punt-to-controller default route")
	flag.Int64Var(&cfg.seed, "seed", 42, "latency model RNG seed")
	flag.StringVar(&cfg.faultSpec, "faults", "", `inject control-channel faults, e.g. "drop=0.01,delay=0.05,seed=7" (kinds: drop, delay, duplicate, reorder, reset, overflow)`)
	var tcli telemetry.CLI
	tcli.BindFlags(flag.CommandLine)
	flag.Parse()

	// The shared telemetry block installs the process defaults (and, with
	// -telemetry, the HTTP exporter with /metrics/series and /debug/pprof);
	// the serve loop binds the installed registry/tracer explicitly so the
	// per-connection counters land where the exporter looks. The graceful
	// shutdown path flushes the file outputs before exit.
	flush, err := tcli.Setup()
	if err != nil {
		log.Fatalf("switchd: %v", err)
	}
	var serveOpts ofconn.ServeOptions
	if tcli.Enabled() {
		serveOpts.Metrics, serveOpts.Tracer = telemetry.Default(), telemetry.DefaultTracer()
		if tcli.Addr != "" {
			log.Printf("switchd: telemetry on http://%s/", tcli.Addr)
		}
	}
	srv, err := buildServer(cfg, serveOpts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if cfg.faultSpec != "" {
		log.Printf("switchd: injecting faults: %s", cfg.faultSpec)
	}
	prof, _ := switchsim.ProfileByName(cfg.profile)
	log.Printf("switchd: %s (%s, dpid=%#x) listening on %s, scale=%g",
		prof.Name, prof.Kind, prof.DatapathID, srv.Addr(), cfg.scale)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		log.Printf("switchd: %v: draining connections (grace %v)", s, shutdownGrace)
		if err := srv.Shutdown(shutdownGrace); err != nil {
			log.Printf("switchd: %v", err)
		}
	}()

	serveErr := srv.Serve()
	if err := flush(); err != nil {
		log.Printf("switchd: telemetry flush: %v", err)
	}
	if serveErr != nil {
		log.Fatalf("switchd: %v", serveErr)
	}
	log.Print("switchd: stopped")
}

package telemetry

// cli.go holds the one-call setup the commands share: one flag set
// (-metrics-out, -trace-out, -flight-out, -telemetry, -sample-every) bound
// through CLI.BindFlags, one Setup call that installs fresh process
// defaults, optionally serves the HTTP exporter, and hands back a flush
// function that writes the export files when the run finishes.

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"
)

// CLI is the shared telemetry flag block. Bind it with BindFlags, then call
// Setup after flag parsing.
type CLI struct {
	// MetricsOut, TraceOut, FlightOut are export file paths written by the
	// flush function ("" disables each).
	MetricsOut string
	TraceOut   string
	FlightOut  string
	// Addr serves the live HTTP exporter (/metrics, /metrics/series,
	// /trace, /flight, /debug/pprof) when non-empty.
	Addr string
	// SampleEvery is the windowed-series sampling interval for the HTTP
	// exporter's /metrics/series endpoint.
	SampleEvery time.Duration
}

// BindFlags registers the shared telemetry flags on fs (use flag.CommandLine
// from a command's main).
func (c *CLI) BindFlags(fs *flag.FlagSet) {
	fs.StringVar(&c.MetricsOut, "metrics-out", "", "write a telemetry metrics snapshot (JSON) to this file")
	fs.StringVar(&c.TraceOut, "trace-out", "", "write a Chrome trace_event file (JSON) to this file")
	fs.StringVar(&c.FlightOut, "flight-out", "", "write the per-switch RTT flight recorder (JSON Lines) to this file")
	fs.StringVar(&c.Addr, "telemetry", "", "serve /metrics, /metrics/series, /trace, /flight and /debug/pprof over HTTP on this address (e.g. 127.0.0.1:8080)")
	fs.DurationVar(&c.SampleEvery, "sample-every", DefaultSampleInterval, "sampling interval for the windowed /metrics/series endpoint")
}

// Enabled reports whether any telemetry sink was requested.
func (c *CLI) Enabled() bool {
	return c.MetricsOut != "" || c.TraceOut != "" || c.FlightOut != "" || c.Addr != ""
}

// OutputPaths returns the flag-name/path pairs of the requested export
// files, for commands that validate output destinations before running.
func (c *CLI) OutputPaths() [][2]string {
	var out [][2]string
	for _, p := range [][2]string{
		{"-metrics-out", c.MetricsOut}, {"-trace-out", c.TraceOut}, {"-flight-out", c.FlightOut},
	} {
		if p[1] != "" {
			out = append(out, p)
		}
	}
	return out
}

// Setup installs a fresh Registry, Tracer, and FlightRecorder as the
// process defaults when any sink was requested, so components constructed
// afterwards bind to them automatically. With Addr set it also binds the
// listener (failing fast on a bad address), starts the windowed Sampler,
// and serves the HTTP exporter in the background. The returned flush stops
// the sampler, closes the listener and writes every requested file,
// returning the joined failures (one failing sink does not cost the
// others); it is never nil. When no sink was requested nothing is installed
// and flush is a no-op.
func (c *CLI) Setup() (flush func() error, err error) {
	if !c.Enabled() {
		return func() error { return nil }, nil
	}
	// Bind the listener before touching the process defaults, so a bad
	// -telemetry address fails without leaving half-installed globals.
	var ln net.Listener
	if c.Addr != "" {
		if ln, err = net.Listen("tcp", c.Addr); err != nil {
			return nil, fmt.Errorf("telemetry: -telemetry %s: %w", c.Addr, err)
		}
	}
	reg := NewRegistry()
	tr := NewTracer(nil)
	fr := NewFlightRecorder(0)
	SetDefault(reg, tr)
	SetDefaultFlight(fr)

	var smp *Sampler
	if ln != nil {
		smp = NewSampler(reg, SamplerOptions{Interval: c.SampleEvery})
		smp.Start()
		h := HandlerFor(HandlerOptions{Registry: reg, Tracer: tr, Sampler: smp, Flight: fr})
		go func() {
			if serr := http.Serve(ln, h); !errors.Is(serr, net.ErrClosed) {
				fmt.Fprintf(os.Stderr, "telemetry: http: %v\n", serr)
			}
		}()
	}
	return func() error {
		smp.Stop()
		var errs []error
		if ln != nil {
			errs = append(errs, ln.Close())
		}
		for _, out := range []struct {
			path  string
			write func(path string) error
		}{{c.MetricsOut, reg.WriteFile}, {c.TraceOut, tr.WriteFile}, {c.FlightOut, fr.WriteFile}} {
			if out.path != "" {
				errs = append(errs, out.write(out.path))
			}
		}
		return errors.Join(errs...)
	}, nil
}

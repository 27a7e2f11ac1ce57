package fleet

import (
	"fmt"
	"io"
	"log"
	"net"
	"time"

	"tango/internal/conformance"
	"tango/internal/ofconn"
	"tango/internal/simclock"
	"tango/internal/switchsim"
	"tango/internal/telemetry"
)

// TCPMember is a real-TCP member: a connected controller and the name the
// fleet reports it under.
type TCPMember struct {
	Name string
	Ctrl *ofconn.Controller
}

// SimTCP is a set of real-TCP switches served in-process: each is a
// switchsim.Switch behind an ofconn.Server on its own loopback listener —
// the exact accept/agent path cmd/switchd runs — with a controller connected
// to each. Benchmarks and smoke tests use it to mix genuine socket members
// into a fleet without forking processes.
type SimTCP struct {
	// Fleet holds the controller side: one connected member per server,
	// named tcp-000, tcp-001, ... Pass it as Options.TCP.
	Fleet   []TCPMember
	servers []*ofconn.Server
}

// SpawnSimTCP starts n TCP switches with profiles drawn from
// conformance.GenerateSpecs(n, seed), their emulated latencies compressed
// by scale (e.g. 1e-4 turns a 2ms latency into 200ns of real sleep), and
// connects a controller to each with copts. On any error everything
// already started is torn down.
func SpawnSimTCP(n int, seed int64, scale float64, copts ofconn.ControllerOptions) (*SimTCP, error) {
	s := &SimTCP{}
	quiet := log.New(io.Discard, "", 0)
	for i, spec := range conformance.GenerateSpecs(n, seed) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("fleet: tcp member %d: %w", i, err)
		}
		sw := switchsim.New(spec.Profile,
			switchsim.WithClock(&simclock.Real{Scale: scale}),
			switchsim.WithSeed(spec.Seed),
		)
		srv := ofconn.NewServer(ln, sw, ofconn.ServeOptions{
			Logger:  quiet,
			Metrics: telemetry.NewRegistry(),
		})
		s.servers = append(s.servers, srv)
		go srv.Serve()
		name := fmt.Sprintf("tcp-%03d", i)
		c, err := ofconn.DialOptions(srv.Addr().String(), copts)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("fleet: connect %s: %w", name, err)
		}
		s.Fleet = append(s.Fleet, TCPMember{Name: name, Ctrl: c})
	}
	return s, nil
}

// Len returns the member count.
func (s *SimTCP) Len() int { return len(s.servers) }

// Close disconnects every controller, then gracefully shuts every server
// down (draining in-flight ops within a short grace window).
func (s *SimTCP) Close() {
	for _, m := range s.Fleet {
		m.Ctrl.Close()
	}
	for _, srv := range s.servers {
		_ = srv.Shutdown(time.Second)
	}
}

package main

import (
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"time"

	"tango/internal/core/infer"
	"tango/internal/core/probe"
	"tango/internal/ofconn"
	"tango/internal/simclock"
	"tango/internal/switchsim"
)

// channel_tcp: the real-socket run. One op is a cycle against one
// ofconn.Server (a Switch1 model whose latencies are compressed to
// nanoseconds, so the channel and not the model sets the time) over host
// loopback TCP — not a real link — through one ofconn.Controller: a
// pipelined install of channelRules same-priority rules, one serial probe of
// each, a synchronous cost fit, and a pipelined clear. openflow, packet,
// ofconn and switchsim.Handle dominate; infer's math and sched are idle.

const (
	// channelRules is sized so a ten-second window holds at least 200
	// cycles on the reference host; the async-window layer probes cover
	// the 1024-rule batch.
	channelRules    = 512
	channelPriority = 1000
	channelSamples  = 32 // infer.CostOptions.Samples per cycle
	channelScale    = 1e-6
)

// tcpSwitch is one emulated switch served on a loopback listener with one
// controller connected to it through a counting socket.
type tcpSwitch struct {
	sw   *switchsim.Switch
	srv  *ofconn.Server
	done chan error
	conn *countingConn
	ctrl *ofconn.Controller
}

// serveSwitch serves sw on an ephemeral loopback port.
func serveSwitch(sw *switchsim.Switch) (*tcpSwitch, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	t := &tcpSwitch{sw: sw, done: make(chan error, 1)}
	t.srv = ofconn.NewServer(ln, sw, ofconn.ServeOptions{Logger: log.New(io.Discard, "", 0)})
	go func() { t.done <- t.srv.Serve() }()
	return t, nil
}

// connect dials the server and completes the OpenFlow handshake, replacing
// any controller connected before.
func (t *tcpSwitch) connect(opts ofconn.ControllerOptions) error {
	if t.ctrl != nil {
		t.ctrl.Close()
		t.ctrl = nil
	}
	c, err := net.Dial("tcp", t.srv.Addr().String())
	if err != nil {
		return err
	}
	t.conn = &countingConn{Conn: c}
	if t.ctrl, err = ofconn.NewControllerOptions(t.conn, opts); err != nil {
		c.Close()
	}
	return err
}

// dialSwitch serves sw and connects a controller with opts.
func dialSwitch(sw *switchsim.Switch, opts ofconn.ControllerOptions) (*tcpSwitch, error) {
	t, err := serveSwitch(sw)
	if err != nil {
		return nil, err
	}
	if err := t.connect(opts); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

// close disconnects the controller, shuts the server down and waits for its
// accept loop to return.
func (t *tcpSwitch) close() error {
	if t.ctrl != nil {
		t.ctrl.Close()
	}
	err := t.srv.Shutdown(time.Second)
	<-t.done
	return err
}

func newChannelSwitch(seed int64) *switchsim.Switch {
	return switchsim.New(switchsim.Switch1(),
		switchsim.WithClock(&simclock.Real{Scale: channelScale}),
		switchsim.WithSeed(seed))
}

type channelTCP struct {
	m    *meter
	tr   *tracer
	t    *tcpSwitch
	e    *probe.Engine
	dev  *tracedChannel
	ids  []uint32 // install order
	perm []int    // probe order, redrawn from the seed
	base uint32
}

func (w *channelTCP) cycle() int { return 1 }

func (w *channelTCP) setup(seed int64, m *meter, tr *tracer) error {
	w.m, w.tr = m, tr
	t, err := dialSwitch(newChannelSwitch(seed), ofconn.ControllerOptions{})
	if err != nil {
		return err
	}
	w.t = t
	var dev probe.Device = t.ctrl
	if tr != nil {
		w.dev = &tracedChannel{Controller: t.ctrl, tr: tr}
		dev = w.dev
	}
	w.e = probe.NewEngine(dev)
	rng := rand.New(rand.NewSource(seed))
	w.base = 1<<16 + uint32(rng.Intn(1<<12))*channelRules
	w.ids = make([]uint32, channelRules)
	for i := range w.ids {
		w.ids[i] = w.base + uint32(i)
	}
	w.perm = rng.Perm(channelRules)
	// One reference cycle proves the channel end to end before anything is
	// measured on it.
	if _, err := w.op(0); err != nil {
		return fmt.Errorf("reference cycle: %w", err)
	}
	return nil
}

// phase runs f as one named phase of the cycle; traced, the phase's engine
// time and the channel time under it become spans.
func (w *channelTCP) phase(name, layer string, f func() error) error {
	if w.tr == nil {
		return f()
	}
	s := w.tr.slot(rootSlot, name, layer)
	w.dev.slot = w.tr.slot(s, "channel", "ofconn")
	t0 := time.Now()
	err := f()
	w.tr.add(s, t0, time.Since(t0))
	return err
}

func (w *channelTCP) op(int) (float64, error) {
	before := w.e.Stats()
	var punted, short int
	w.m.start()
	err := w.phase("install", "probe", func() error {
		n, err := w.e.InstallBatch(w.ids, channelPriority)
		short = channelRules - n
		return err
	})
	if err == nil {
		err = w.phase("probes", "probe", func() error {
			for _, k := range w.perm {
				_, p, err := w.e.Probe(w.ids[k])
				if err != nil {
					return err
				}
				if p {
					punted++
				}
			}
			return nil
		})
	}
	if err == nil {
		err = w.phase("costs", "infer", func() error {
			_, err := infer.MeasureCosts(w.e, "channel", infer.CostOptions{Samples: channelSamples})
			return err
		})
	}
	if err == nil {
		err = w.phase("clear", "probe", func() error {
			w.e.ClearBatch(w.base, channelRules, channelPriority)
			return nil
		})
	}
	w.m.stop()
	if err != nil {
		return 0, err
	}
	after := w.e.Stats()
	work := float64(after.FlowMods-before.FlowMods) + float64(after.Probes-before.Probes)
	switch {
	case short != 0:
		return work, fmt.Errorf("%d of %d installs not confirmed", short, channelRules)
	case punted != 0:
		return work, fmt.Errorf("%d of %d probes punted to the controller", punted, channelRules)
	}
	// The clear's trailing barrier has completed, so the table is settled.
	flows, err := w.t.ctrl.FlowStats()
	if err != nil {
		return work, fmt.Errorf("flow stats after clear: %w", err)
	}
	if len(flows) != 0 {
		return work, fmt.Errorf("%d rules left after clear", len(flows))
	}
	return work, nil
}

func (w *channelTCP) finish() []error {
	if w.t == nil {
		return nil
	}
	if err := w.t.close(); err != nil {
		return []error{fmt.Errorf("server shutdown: %w", err)}
	}
	return nil
}

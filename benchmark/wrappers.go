package main

import (
	"net"
	"sync/atomic"
	"time"

	"tango/internal/core/pattern"
	"tango/internal/core/probe"
	"tango/internal/core/sched"
	"tango/internal/dag"
	"tango/internal/ofconn"
	"tango/internal/openflow"
	"tango/internal/packet"
)

// The wrappers time a layer from outside, through the interface it is called
// by. Each resolves its tracer slot before the timed call and folds the
// call's duration into it afterwards.

// tracedDevice times the emulated switch under a probing engine. Embedding
// probe.SimDevice (and overriding only the four data and control calls)
// keeps every optional device interface live — FrameDevice, TrafficSender,
// LabeledDevice, Sleep, Reset — so the engine takes the same fast paths it
// takes untraced, and the wrapper keeps compiling if those interfaces merge.
type tracedDevice struct {
	probe.SimDevice
	tr *tracer
	// slot is where device time is billed; the phase wrappers repoint it so
	// device calls nest under the phase that made them.
	slot int
	n    uint32
}

// deviceSample: an emulated-switch call takes 50-300 ns, two clock reads
// and the bookkeeping about 70, so timing every call would cost a traced
// inspection half again its time. One call in deviceSample is timed and
// billed deviceSample times; the stride is odd so that alternating call
// patterns (add, delete, add, ...) are sampled on both sides.
const deviceSample = 7

// begin starts the clock on one call in deviceSample.
func (d *tracedDevice) begin() (t0 time.Time, timed bool) {
	if d.n++; d.n%deviceSample != 0 {
		return time.Time{}, false
	}
	return time.Now(), true
}

// end bills a timed call for itself and the untimed ones it stands for.
func (d *tracedDevice) end(t0 time.Time, timed bool) {
	if timed {
		d.tr.addN(d.slot, t0, time.Since(t0), deviceSample)
	}
}

func (d *tracedDevice) FlowMod(fm *openflow.FlowMod) error {
	t0, timed := d.begin()
	err := d.SimDevice.FlowMod(fm)
	d.end(t0, timed)
	return err
}

func (d *tracedDevice) SendProbe(data []byte, inPort uint16) (time.Duration, bool, error) {
	t0, timed := d.begin()
	rtt, punted, err := d.SimDevice.SendProbe(data, inPort)
	d.end(t0, timed)
	return rtt, punted, err
}

func (d *tracedDevice) SendFrameN(f *packet.Frame, inPort uint16, size, n int) (time.Duration, bool, error) {
	t0, timed := d.begin()
	rtt, punted, err := d.SimDevice.SendFrameN(f, inPort, size, n)
	d.end(t0, timed)
	return rtt, punted, err
}

func (d *tracedDevice) SendTraffic(data []byte, inPort uint16, count int) error {
	t0, timed := d.begin()
	err := d.SimDevice.SendTraffic(data, inPort, count)
	d.end(t0, timed)
	return err
}

// tracedChannel times the TCP controller under a probing engine. Embedding
// *ofconn.Controller keeps PipelinedDevice, LabeledDevice and Sleep live.
// Time inside these calls is the whole channel: controller, loopback socket,
// server loop and the switch behind it.
type tracedChannel struct {
	*ofconn.Controller
	tr   *tracer
	slot int
}

func (d *tracedChannel) FlowMod(fm *openflow.FlowMod) error {
	t0 := time.Now()
	err := d.Controller.FlowMod(fm)
	d.tr.add(d.slot, t0, time.Since(t0))
	return err
}

func (d *tracedChannel) FlowModBatch(fms []*openflow.FlowMod) ([]error, error) {
	t0 := time.Now()
	errs, err := d.Controller.FlowModBatch(fms)
	d.tr.add(d.slot, t0, time.Since(t0))
	return errs, err
}

func (d *tracedChannel) SendProbe(data []byte, inPort uint16) (time.Duration, bool, error) {
	t0 := time.Now()
	rtt, punted, err := d.Controller.SendProbe(data, inPort)
	d.tr.add(d.slot, t0, time.Since(t0))
	return rtt, punted, err
}

// tracedScheduler times a scheduler's per-switch ordering.
type tracedScheduler struct {
	sched.Scheduler
	tr   *tracer
	slot int
}

func (s *tracedScheduler) Order(sw string, reqs []*sched.Request, ids []dag.NodeID, g *sched.Graph) []*sched.Request {
	t0 := time.Now()
	out := s.Scheduler.Order(sw, reqs, ids, g)
	s.tr.add(s.slot, t0, time.Since(t0))
	return out
}

// tracedExecutor times an executor's per-switch batches.
type tracedExecutor struct {
	sched.Executor
	tr   *tracer
	slot int
}

func (x *tracedExecutor) Execute(sw string, ops []pattern.Op) (time.Duration, error) {
	t0 := time.Now()
	d, err := x.Executor.Execute(sw, ops)
	x.tr.add(x.slot, t0, time.Since(t0))
	return d, err
}

// countingConn counts what crosses the controller's socket. It never times:
// pipelined writes happen on the controller's writer goroutine, outside any
// op's call tree.
type countingConn struct {
	net.Conn
	writes, written, reads, read atomic.Int64
}

func (c *countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.writes.Add(1)
	c.written.Add(int64(n))
	return n, err
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.reads.Add(1)
	c.read.Add(int64(n))
	return n, err
}

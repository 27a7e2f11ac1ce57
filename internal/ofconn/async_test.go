package ofconn

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"tango/internal/core/probe"
	"tango/internal/faults"
	"tango/internal/openflow"
	"tango/internal/packet"
	"tango/internal/switchsim"
	"tango/internal/telemetry"
)

// dialFlakyProfile is dialFlaky with a chosen switch profile.
func dialFlakyProfile(t *testing.T, prof switchsim.Profile) (*Controller, *failingWriteConn) {
	t.Helper()
	sw := switchsim.New(prof, switchsim.WithClock(fastClock()))
	addr := startSwitch(t, sw)
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	fc := &failingWriteConn{Conn: raw}
	c, err := NewControllerOptions(fc, ControllerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, fc
}

// TestFlowModAsyncPipelinesBatch is the happy path: a batch larger than the
// in-flight window lands entirely and per-op outcomes are all nil.
func TestFlowModAsyncPipelinesBatch(t *testing.T) {
	c, _ := dialFlaky(t)
	const n = 2*asyncWindow + 7 // three windows
	fms := make([]*openflow.FlowMod, n)
	for i := range fms {
		fms[i] = probeAdd(uint32(i))
	}
	errs, err := c.FlowModBatch(fms)
	if err != nil {
		t.Fatalf("FlowModBatch: %v", err)
	}
	for i, e := range errs {
		if e != nil {
			t.Fatalf("op %d: unexpected rejection %v", i, e)
		}
	}
	flows, err := c.FlowStats()
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) != n {
		t.Fatalf("installed %d rules, want %d", len(flows), n)
	}
}

// TestFlowModBatchTableFullPerOp proves per-op error attribution: adds past
// a TCAM-only switch's capacity come back as switchsim.ErrTableFull on
// exactly the ops that overflowed, and the engine's pipelined InstallBatch
// agrees with its serial fallback on the installed count.
func TestFlowModBatchTableFullPerOp(t *testing.T) {
	c, _ := dialFlakyProfile(t, switchsim.Switch3())
	const n = 420
	fms := make([]*openflow.FlowMod, n)
	for i := range fms {
		fms[i] = probeAdd(uint32(i))
	}
	errs, err := c.FlowModBatch(fms)
	if err != nil {
		t.Fatalf("FlowModBatch: %v", err)
	}
	if len(errs) != n {
		t.Fatalf("a batch with rejections returned %d outcomes, want %d", len(errs), n)
	}
	installed := 0
	for ; installed < n && errs[installed] == nil; installed++ {
	}
	if installed == 0 || installed == n {
		t.Fatalf("installed = %d, want a capacity rejection inside the batch", installed)
	}
	for i := installed; i < n; i++ {
		if !errors.Is(errs[i], switchsim.ErrTableFull) {
			t.Fatalf("op %d after capacity: err = %v, want ErrTableFull", i, errs[i])
		}
	}

	// The serial reference on an identical fresh switch lands the same count.
	serial := switchsim.New(switchsim.Switch3(), switchsim.WithClock(fastClock()))
	e := probe.NewEngine(probe.SimDevice{S: serial})
	ids := make([]uint32, n)
	for i := range ids {
		ids[i] = uint32(i)
	}
	sn, serr := e.InstallBatch(ids, 10)
	if !errors.Is(serr, switchsim.ErrTableFull) {
		t.Fatalf("serial InstallBatch err = %v, want ErrTableFull", serr)
	}
	if sn != installed {
		t.Fatalf("pipelined installed %d rules, serial %d", installed, sn)
	}
}

// TestFlowModAsyncWindowFull pins the window discipline: a batch one op past
// asyncWindow is two exchanges — a full window and a window of one — each one
// write and one barrier.
func TestFlowModAsyncWindowFull(t *testing.T) {
	sw := switchsim.New(switchsim.Switch2(), switchsim.WithClock(fastClock()))
	raw, err := net.Dial("tcp", startSwitch(t, sw))
	if err != nil {
		t.Fatal(err)
	}
	tap := &tapConn{Conn: raw}
	reg := telemetry.NewRegistry()
	c, err := NewControllerOptions(tap, ControllerOptions{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fms := make([]*openflow.FlowMod, asyncWindow+1)
	for i := range fms {
		fms[i] = probeAdd(uint32(i))
	}
	tap.reset()
	errs, err := c.FlowModBatch(fms)
	if err != nil {
		t.Fatalf("FlowModBatch: %v", err)
	}
	for i, e := range errs {
		if e != nil {
			t.Fatalf("op %d: %v", i, e)
		}
	}
	writes, replies := tap.drain(t)
	if writes != 2 || len(replies) != 2 {
		t.Fatalf("%d ops cost %d writes and drew %d replies, want 2 and 2 barrier replies", len(fms), writes, len(replies))
	}
	if got := reg.Counter("ofconn.controller.async_flushes").Value(); got != 2 {
		t.Fatalf("async_flushes = %d, want 2", got)
	}
}

// TestFlowModAsyncWindowFullFlushFailure covers a write failure past the first
// window: the batch reports it, every op from the failed window on carries it,
// and the window confirmed before it keeps its own outcomes.
func TestFlowModAsyncWindowFullFlushFailure(t *testing.T) {
	c, fc := dialFlaky(t)
	fms := make([]*openflow.FlowMod, 2*asyncWindow+5)
	for i := range fms {
		fms[i] = probeAdd(uint32(i))
	}
	fc.arm(1) // the first window's write succeeds, the second's fails
	errs, err := c.FlowModBatch(fms)
	if err == nil {
		t.Fatal("FlowModBatch across a dead pipe: want error")
	}
	for i, e := range errs {
		if i < asyncWindow && e != nil {
			t.Fatalf("op %d of the confirmed window: %v", i, e)
		}
		if i >= asyncWindow && e != err {
			t.Fatalf("op %d = %v, want the batch's failure %v", i, e, err)
		}
	}
}

// TestFlowModAsyncSendFailure covers the send-failure path of a window: the
// write error is the batch's error and every op's, never a silent success.
func TestFlowModAsyncSendFailure(t *testing.T) {
	c, fc := dialFlaky(t)
	fc.arm(0)
	errs, err := c.FlowModBatch([]*openflow.FlowMod{probeAdd(1), probeAdd(2), probeAdd(3)})
	if err == nil {
		t.Fatal("FlowModBatch over failing writes: want error")
	}
	for i, e := range errs {
		if e == nil {
			t.Fatalf("op %d resolved nil despite failed send", i)
		}
	}
}

// TestFlowModAsyncBarrierFailure lets exactly the flow-mod's bytes reach the
// wire and fails the rest of the write — the barrier: the switch applies the
// rule, but with no barrier to confirm it the op must report the failure.
func TestFlowModAsyncBarrierFailure(t *testing.T) {
	sw := switchsim.New(switchsim.Switch2(), switchsim.WithClock(fastClock()))
	raw, err := net.Dial("tcp", startSwitch(t, sw))
	if err != nil {
		t.Fatal(err)
	}
	fc := &failingWriteConn{Conn: raw}
	c, err := NewControllerOptions(fc, ControllerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fm := probeAdd(1)
	fc.armShort(len(fm.Marshal(nil)))
	if err := c.FlowMod(fm); err == nil {
		t.Fatal("FlowMod whose barrier never left: want error")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if tcam, hw, soft := sw.RuleCount(); tcam+hw+soft == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the flow-mod's bytes never reached the switch")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFlowModAsyncCloseWhileInflight closes the controller while a batch
// awaits its barrier (the agent drops every reply and no timeout is set): the
// batch and each of its ops must resolve with an error — never hang, never
// report success — and later calls must fail.
func TestFlowModAsyncCloseWhileInflight(t *testing.T) {
	sw := switchsim.New(switchsim.Switch2(), switchsim.WithClock(fastClock()))
	addr := startFaultySwitch(t, sw, faults.NewInjector(faults.Config{Seed: 1, Drop: 1.0}))
	c, err := DialOptions(addr, ControllerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		errs []error
		err  error
	}
	done := make(chan outcome, 1)
	go func() {
		errs, err := c.FlowModBatch([]*openflow.FlowMod{probeAdd(0), probeAdd(1), probeAdd(2)})
		done <- outcome{errs, err}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for reading, _ := exchangeState(); reading != 1; reading, _ = exchangeState() {
		if time.Now().After(deadline) {
			t.Fatal("the batch never blocked in its read")
		}
		time.Sleep(time.Millisecond)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case got := <-done:
		if got.err == nil {
			t.Fatal("batch resolved nil across Close")
		}
		for i, e := range got.errs {
			if e == nil {
				t.Fatalf("op %d resolved nil across Close", i)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("batch hung across Close")
	}
	if err := c.FlowMod(probeAdd(9)); err == nil {
		t.Fatal("FlowMod after Close: want error")
	}
}

// TestSyncOpsFenceWindow: a batch that returned is confirmed — nothing of it
// is left for a later call to wait behind — so a probe sent right after must
// observe the rule (forwarded, not punted).
func TestSyncOpsFenceWindow(t *testing.T) {
	c, _ := dialFlaky(t)
	if _, err := c.FlowModBatch([]*openflow.FlowMod{probeAdd(1)}); err != nil {
		t.Fatalf("FlowModBatch: %v", err)
	}
	data, err := packet.BuildProbe(packet.ProbeSpec{FlowID: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, punted, err := c.SendProbe(data, 1)
	if err != nil {
		t.Fatalf("SendProbe: %v", err)
	}
	if punted {
		t.Fatal("probe punted: the batch returned before its rule was in place")
	}
	flows, err := c.FlowStats()
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) != 1 {
		t.Fatalf("flow count = %d, want 1", len(flows))
	}
}

// TestEngineBatchOverPipelinedChannel drives the probe engine's batch
// helpers end to end over TCP: InstallBatch lands every rule, and
// ClearProbeRules (riding ClearBatch) removes them all again. Both ride the
// pipelined path, so each costs ⌈150/64⌉ = 3 socket writes, not 150.
func TestEngineBatchOverPipelinedChannel(t *testing.T) {
	sw := switchsim.New(switchsim.Switch2(), switchsim.WithClock(fastClock()))
	reg := telemetry.NewRegistry()
	c, err := DialOptions(startSwitch(t, sw), ControllerOptions{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	e := probe.NewEngine(c)
	writes := reg.Counter("ofconn.controller.async_writes")
	const n, perBatch = 150, 3 // ⌈150/asyncWindow⌉
	ids := make([]uint32, n)
	for i := range ids {
		ids[i] = uint32(i)
	}
	got, err := e.InstallBatch(ids, 10)
	if err != nil || got != n {
		t.Fatalf("InstallBatch = %d, %v; want %d, nil", got, err, n)
	}
	if w := writes.Value(); w != perBatch {
		t.Fatalf("InstallBatch of %d took %d socket writes, want %d", n, w, perBatch)
	}
	flows, err := c.FlowStats()
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) != n {
		t.Fatalf("flow count = %d, want %d", len(flows), n)
	}
	e.ClearProbeRules(0, n, 10)
	if w := writes.Value(); w != 2*perBatch {
		t.Fatalf("clear of %d took %d socket writes, want %d", n, w-perBatch, perBatch)
	}
	flows, err = c.FlowStats()
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) != 0 {
		t.Fatalf("flow count after clear = %d, want 0", len(flows))
	}
}

// TestAsyncOpSpans checks the span segments of the flow-mod path: every
// confirmed window lands one observation in each of the entry→written and
// written→barrier histograms, the recorded durations are non-negative, and
// the queue segment is gone with the queue.
func TestAsyncOpSpans(t *testing.T) {
	sw := switchsim.New(switchsim.Switch2(), switchsim.WithClock(fastClock()))
	addr := startSwitch(t, sw)
	reg := telemetry.NewRegistry()
	c, err := DialOptions(addr, ControllerOptions{Metrics: reg, AsyncWindow: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n, windows = 17, 3
	fms := make([]*openflow.FlowMod, n)
	for i := range fms {
		fms[i] = probeAdd(uint32(1000 + i))
	}
	errs, err := c.FlowModBatch(fms)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range errs {
		if e != nil {
			t.Fatalf("op %d: %v", i, e)
		}
	}

	snap := reg.Snapshot()
	for _, name := range []string{
		"ofconn.controller.span.submit_enqueue_ns",
		"ofconn.controller.span.wire_barrier_ns",
	} {
		h, ok := snap.Histograms[name]
		if !ok {
			t.Fatalf("%s missing from snapshot", name)
		}
		if h.Count != windows {
			t.Fatalf("%s count = %d, want %d (one per window)", name, h.Count, windows)
		}
		if h.Min < 0 {
			t.Fatalf("%s min = %v, want >= 0", name, h.Min)
		}
	}
	if _, ok := snap.Histograms["ofconn.controller.span.queue_wire_ns"]; ok {
		t.Fatal("queue_wire_ns still registered: there is no queue to time")
	}
}

// TestAsyncOpSpansSkippedWhenUninstrumented checks the uninstrumented path
// stays stamp-free: stamp, the flow-mod path's only clock read short of a
// recorded window, reads no clock when neither a registry nor a tracer is
// bound, and does once one is.
func TestAsyncOpSpansSkippedWhenUninstrumented(t *testing.T) {
	c, _ := dialFlaky(t)
	if err := c.FlowMod(probeAdd(1)); err != nil {
		t.Fatal(err)
	}
	if at := c.tel.stamp(); !at.IsZero() {
		t.Fatalf("uninstrumented controller stamped %v", at)
	}
	var bound ctrlTelemetry
	bound.init(ControllerOptions{Metrics: telemetry.NewRegistry()})
	if bound.stamp().IsZero() {
		t.Fatal("instrumented controller did not stamp")
	}
}

// TestControllerAutoLabel: a probe engine over a live channel must pick up
// the controller's datapath-ID label (Controller.TelemetryLabel), so
// per-switch histogram children and flight tracks bind over TCP exactly as
// they do for emulated devices.
func TestControllerAutoLabel(t *testing.T) {
	c, _ := dialFlaky(t)
	e := probe.NewEngine(c)
	want := fmt.Sprintf("dpid-%#x", c.Features().DatapathID)
	if e.Label() != want {
		t.Fatalf("auto label = %q, want %q", e.Label(), want)
	}

	reg := telemetry.NewRegistry()
	e.SetTelemetry(reg, nil)
	e.SetFlight(telemetry.NewFlightRecorder(16))
	if err := e.Install(1, 10); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Probe(1); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	child := telemetry.ChildName("probe.rtt_ns", "switch", want)
	if h, ok := snap.Histograms[child]; !ok || h.Count != 1 {
		t.Fatalf("labeled child %q: present=%v count=%+v", child, ok, h)
	}
}

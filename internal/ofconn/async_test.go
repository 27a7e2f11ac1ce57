package ofconn

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"tango/internal/core/probe"
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
	c, err := NewController(fc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, fc
}

// TestFlowModAsyncPipelinesBatch is the happy path: a batch larger than the
// in-flight window lands entirely, per-op outcomes are all nil, and no XID
// stays registered afterwards.
func TestFlowModAsyncPipelinesBatch(t *testing.T) {
	c, _ := dialFlaky(t)
	const n = 2*asyncWindow + 7 // forces two internal window flushes
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
	if got := c.pendingLen(); got != 0 {
		t.Fatalf("batch left %d pending XIDs", got)
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
	if got := c.pendingLen(); got != 0 {
		t.Fatalf("batch left %d pending XIDs", got)
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

// TestFlowModAsyncWindowFull pins the window discipline: the op that would
// exceed asyncWindow first flushes the window, resolving every outstanding
// completion and releasing every XID, and leaves only itself in flight.
func TestFlowModAsyncWindowFull(t *testing.T) {
	c, _ := dialFlaky(t)
	comps := make([]*Completion, asyncWindow+1)
	for i := range comps {
		cp, err := c.FlowModAsync(probeAdd(uint32(i)))
		if err != nil {
			t.Fatalf("FlowModAsync %d: %v", i, err)
		}
		comps[i] = cp
	}
	for i := 0; i < asyncWindow; i++ {
		err, ok := comps[i].Err()
		if !ok {
			t.Fatalf("completion %d unresolved after window-full flush", i)
		}
		if err != nil {
			t.Fatalf("completion %d: %v", i, err)
		}
	}
	if _, ok := comps[asyncWindow].Err(); ok {
		t.Fatal("last op resolved before any covering barrier")
	}
	if got := c.pendingLen(); got != 1 {
		t.Fatalf("pending XIDs = %d, want 1 (the unflushed op)", got)
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := comps[asyncWindow].Wait(); err != nil {
		t.Fatalf("last op: %v", err)
	}
	if got := c.pendingLen(); got != 0 {
		t.Fatalf("pending XIDs = %d after flush, want 0", got)
	}
}

// TestFlowModAsyncWindowFullFlushFailure covers the window-full error path:
// when the forced flush sinks on a dead pipe, FlowModAsync itself reports
// the failure, the outstanding completions resolve with it, and no XID
// leaks — including the never-registered overflowing op's.
func TestFlowModAsyncWindowFullFlushFailure(t *testing.T) {
	c, fc := dialFlaky(t)
	comps := make([]*Completion, asyncWindow)
	for i := range comps {
		cp, err := c.FlowModAsync(probeAdd(uint32(i)))
		if err != nil {
			t.Fatalf("FlowModAsync %d: %v", i, err)
		}
		comps[i] = cp
	}
	fc.arm(0)
	if _, err := c.FlowModAsync(probeAdd(asyncWindow)); err == nil {
		t.Fatal("FlowModAsync past a dead window: want error")
	}
	for i, cp := range comps {
		if err := cp.Wait(); err == nil {
			t.Fatalf("completion %d resolved nil across a failed flush", i)
		}
	}
	if got := c.pendingLen(); got != 0 {
		t.Fatalf("failed flush leaked %d pending XIDs", got)
	}
}

// TestFlowModAsyncSendFailure covers the asynchronous send-failure path: the
// write error surfaces at the flush (and on the op's completion), never as
// a silent success, and the XIDs are released.
func TestFlowModAsyncSendFailure(t *testing.T) {
	c, fc := dialFlaky(t)
	fc.arm(0)
	cp, err := c.FlowModAsync(probeAdd(1))
	if err != nil {
		// Queueing is decoupled from the wire; the failure belongs to Flush.
		t.Fatalf("FlowModAsync: %v", err)
	}
	if err := c.Flush(); err == nil {
		t.Fatal("Flush over failing writes: want error")
	}
	if err := cp.Wait(); err == nil {
		t.Fatal("completion resolved nil despite failed send")
	}
	if got := c.pendingLen(); got != 0 {
		t.Fatalf("send failure leaked %d pending XIDs", got)
	}
}

// TestFlowModAsyncBarrierFailure lets the flow-mod reach the wire and fails
// only the flush barrier's write: the flush errors, the completion resolves
// with the failure, and the XIDs are released.
func TestFlowModAsyncBarrierFailure(t *testing.T) {
	// An explicit registry so asyncWrites is a live counter the test can
	// poll to sequence the write-failure injection after the data write.
	sw := switchsim.New(switchsim.Switch2(), switchsim.WithClock(fastClock()))
	addr := startSwitch(t, sw)
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	fc := &failingWriteConn{Conn: raw}
	c, err := NewControllerOptions(fc, ControllerOptions{Metrics: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	cp, err := c.FlowModAsync(probeAdd(1))
	if err != nil {
		t.Fatalf("FlowModAsync: %v", err)
	}
	// Wait until the writer has put the flow-mod on the wire, so arming
	// cannot race the data write — only the barrier is left to fail.
	deadline := time.Now().Add(5 * time.Second)
	for c.tel.asyncWrites.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("writer never wrote the queued flow-mod")
		}
		time.Sleep(time.Millisecond)
	}
	fc.arm(0)
	if err := c.Flush(); err == nil {
		t.Fatal("Flush with failing barrier write: want error")
	}
	if err := cp.Wait(); err == nil {
		t.Fatal("completion resolved nil despite failed barrier")
	}
	if got := c.pendingLen(); got != 0 {
		t.Fatalf("barrier failure leaked %d pending XIDs", got)
	}
}

// TestFlowModAsyncCloseWhileInflight closes the controller with unflushed
// ops in the window: every completion must resolve with an error (never
// hang, never report success), later issues must fail, and no XID survives.
func TestFlowModAsyncCloseWhileInflight(t *testing.T) {
	c, _ := dialFlaky(t)
	comps := make([]*Completion, 3)
	for i := range comps {
		cp, err := c.FlowModAsync(probeAdd(uint32(i)))
		if err != nil {
			t.Fatalf("FlowModAsync %d: %v", i, err)
		}
		comps[i] = cp
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for i, cp := range comps {
		if err := cp.Wait(); err == nil {
			t.Fatalf("completion %d resolved nil across Close", i)
		}
	}
	if _, err := c.FlowModAsync(probeAdd(9)); err == nil {
		t.Fatal("FlowModAsync after Close: want error")
	}
	if got := c.pendingLen(); got != 0 {
		t.Fatalf("close-while-inflight leaked %d pending XIDs", got)
	}
}

// TestSyncOpsFenceWindow proves the sync paths flush the pipelined window
// before touching the wire: a probe sent right after an async install must
// observe the rule (forwarded, not punted), which requires the fence to
// have completed the install's barrier first.
func TestSyncOpsFenceWindow(t *testing.T) {
	c, _ := dialFlaky(t)
	if _, err := c.FlowModAsync(probeAdd(1)); err != nil {
		t.Fatalf("FlowModAsync: %v", err)
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
		t.Fatal("probe punted: fence did not flush the pending install")
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
// ClearProbeRules (riding ClearBatch) removes them all again.
func TestEngineBatchOverPipelinedChannel(t *testing.T) {
	c, _ := dialFlaky(t)
	e := probe.NewEngine(c)
	if !e.Pipelined() {
		t.Fatal("engine over ofconn.Controller should be pipelined")
	}
	ids := make([]uint32, 150)
	for i := range ids {
		ids[i] = uint32(i)
	}
	n, err := e.InstallBatch(ids, 10)
	if err != nil || n != len(ids) {
		t.Fatalf("InstallBatch = %d, %v; want %d, nil", n, err, len(ids))
	}
	flows, err := c.FlowStats()
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) != len(ids) {
		t.Fatalf("flow count = %d, want %d", len(flows), len(ids))
	}
	e.ClearProbeRules(0, uint32(len(ids)), 10)
	flows, err = c.FlowStats()
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) != 0 {
		t.Fatalf("flow count after clear = %d, want 0", len(flows))
	}
}

// TestAsyncOpSpans checks the xid-level span segments of the pipelined path:
// every successfully flushed op lands one observation in each of the
// submit→enqueue, queue→wire and wire→barrier histograms, and the recorded
// durations are non-negative.
func TestAsyncOpSpans(t *testing.T) {
	sw := switchsim.New(switchsim.Switch2(), switchsim.WithClock(fastClock()))
	addr := startSwitch(t, sw)
	reg := telemetry.NewRegistry()
	c, err := DialOptions(addr, ControllerOptions{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 17
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
		"ofconn.controller.span.queue_wire_ns",
		"ofconn.controller.span.wire_barrier_ns",
	} {
		h, ok := snap.Histograms[name]
		if !ok {
			t.Fatalf("%s missing from snapshot", name)
		}
		if h.Count != n {
			t.Fatalf("%s count = %d, want %d", name, h.Count, n)
		}
		if h.Min < 0 {
			t.Fatalf("%s min = %v, want >= 0", name, h.Min)
		}
	}
}

// TestAsyncOpSpansSkippedWhenUninstrumented checks the uninstrumented path
// stays stamp-free: with no metrics bound, completions carry zero timestamps.
func TestAsyncOpSpansSkippedWhenUninstrumented(t *testing.T) {
	c, _ := dialFlaky(t)
	cp, err := c.FlowModAsync(probeAdd(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.Wait(); err != nil {
		t.Fatal(err)
	}
	if !cp.submit.IsZero() || !cp.enqueued.IsZero() || !cp.wrote.IsZero() {
		t.Fatalf("uninstrumented completion carries timestamps: %+v", cp)
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

package faults

import (
	"errors"
	"testing"
	"time"

	"tango/internal/core/probe"
	"tango/internal/openflow"
	"tango/internal/packet"
	"tango/internal/switchsim"
	"tango/internal/telemetry"
)

// testSwitch builds a small policy-cache switch and its wrapped device.
func testSwitch(t *testing.T, cfg Config) (*switchsim.Switch, probe.Device) {
	t.Helper()
	sw := switchsim.New(switchsim.TestSwitch(8, switchsim.PolicyFIFO), switchsim.WithSeed(1))
	return sw, WrapDevice(probe.SimDevice{S: sw}, NewInjector(cfg))
}

func TestWrapDeviceNilInjectorIsPassThrough(t *testing.T) {
	sw := switchsim.New(switchsim.TestSwitch(8, switchsim.PolicyFIFO))
	inner := probe.SimDevice{S: sw}
	if dev := WrapDevice(inner, nil); dev != probe.Device(inner) {
		t.Fatal("nil injector must return the device unchanged")
	}
}

func TestDropReturnsTypedTimeout(t *testing.T) {
	sw, dev := testSwitch(t, Config{Seed: 2, Drop: 1.0, DropTimeout: time.Millisecond})
	e := probe.NewEngine(dev)
	before := sw.Now()
	err := e.Install(1, 100)
	if err == nil {
		t.Fatal("dropped flow-mod reported success")
	}
	var fe *Error
	if !errors.As(err, &fe) || fe.Kind != KindDrop {
		t.Fatalf("got %v, want injected drop", err)
	}
	if !probe.Transient(err) {
		t.Fatal("drop must be retryable")
	}
	// The drop timeout is charged against the virtual clock.
	if sw.Now().Sub(before) < time.Millisecond {
		t.Fatalf("clock advanced %v, want ≥ DropTimeout", sw.Now().Sub(before))
	}
}

func TestDropAckLossStillApplies(t *testing.T) {
	// With drop=1 roughly half the draws are ack losses; after enough
	// installs of distinct flows, some rules must be resident even though
	// every call returned an error.
	sw, dev := testSwitch(t, Config{Seed: 3, Drop: 1.0})
	e := probe.NewEngine(dev)
	for i := uint32(0); i < 16; i++ {
		if err := e.Install(i, 100); err == nil {
			t.Fatal("drop rate 1.0 produced a success")
		}
	}
	tcam, _, software := sw.RuleCount()
	if tcam+software == 0 {
		t.Fatal("no ack-loss drop applied its operation")
	}
	if tcam+software == 16 {
		t.Fatal("no request-loss drop discarded its operation")
	}
}

func TestOverflowWrapsTableFull(t *testing.T) {
	_, dev := testSwitch(t, Config{Seed: 4, Overflow: 1.0})
	e := probe.NewEngine(dev)
	err := e.Install(1, 100)
	if !errors.Is(err, switchsim.ErrTableFull) {
		t.Fatalf("overflow error %v does not wrap ErrTableFull", err)
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatal("overflow error lost the injected marker")
	}
	if !probe.Transient(err) {
		t.Fatal("injected overflow must be transient")
	}
}

func TestResetClearsSwitchAndIsNotTransient(t *testing.T) {
	sw, _ := testSwitch(t, Config{})
	healthy := probe.NewEngine(probe.SimDevice{S: sw})
	for i := uint32(0); i < 4; i++ {
		if err := healthy.Install(i, 100); err != nil {
			t.Fatal(err)
		}
	}
	dev := WrapDevice(probe.SimDevice{S: sw}, NewInjector(Config{Seed: 5, Reset: 1.0}))
	err := probe.NewEngine(dev).Install(9, 100)
	var fe *Error
	if !errors.As(err, &fe) || fe.Kind != KindReset {
		t.Fatalf("got %v, want injected reset", err)
	}
	if probe.Transient(err) {
		t.Fatal("reset must not be transient")
	}
	tcam, _, software := sw.RuleCount()
	if tcam+software != 0 {
		t.Fatalf("switch kept %d rules across a reset", tcam+software)
	}
}

func TestDuplicateAddDoesNotLeakSlots(t *testing.T) {
	sw, dev := testSwitch(t, Config{Seed: 6, Duplicate: 1.0})
	e := probe.NewEngine(dev)
	const n = 12
	for i := uint32(0); i < n; i++ {
		if err := e.Install(i, 100); err != nil {
			t.Fatalf("duplicated add %d failed: %v", i, err)
		}
	}
	tcam, _, software := sw.RuleCount()
	if tcam+software != n {
		t.Fatalf("%d rules resident after %d duplicated adds", tcam+software, n)
	}
}

func TestReorderDelaysFlowModsOneSlot(t *testing.T) {
	// With reorder=1 every flow-mod is held and applied during the next
	// operation, so the switch always trails the controller by one op.
	sw, dev := testSwitch(t, Config{Seed: 7, Reorder: 1.0})
	e := probe.NewEngine(dev)
	const n = 5
	for i := uint32(0); i < n; i++ {
		if err := e.Install(i, 100); err != nil {
			t.Fatalf("held add %d returned %v, want optimistic ack", i, err)
		}
		if got := sw.Stats().FlowMods; got != uint64(i) {
			t.Fatalf("FlowMods = %d after %d installs, want %d (one-slot lag)", got, i+1, i)
		}
	}
	// Any subsequent operation — here a probe — flushes the trailing op.
	if _, _, err := e.Probe(0); err != nil {
		t.Fatal(err)
	}
	if got := sw.Stats().FlowMods; got != n {
		t.Fatalf("FlowMods = %d after probe flush, want %d", got, n)
	}
	// The engine fills one scratch flow-mod for every op, so a device that
	// held the caller's pointer would apply each add as its successor: flow 0
	// never installed, flow n-1 applied twice. Every flow must be resident
	// and forwarding.
	if tcam, _, soft := sw.RuleCount(); tcam+soft != n {
		t.Fatalf("%d rules resident after the flush, want %d", tcam+soft, n)
	}
	for i := uint32(0); i < n; i++ {
		if _, punted, err := e.Probe(i); err != nil || punted {
			t.Fatalf("probe of flow %d: punted=%v err=%v, want forwarded", i, punted, err)
		}
	}
}

func TestDelayChargesClock(t *testing.T) {
	sw, dev := testSwitch(t, Config{Seed: 8, Delay: 1.0, DelayMean: 5 * time.Millisecond, DelayStdDev: time.Microsecond})
	e := probe.NewEngine(dev)
	before := sw.Now()
	if err := e.Install(1, 100); err != nil {
		t.Fatal(err)
	}
	if d := sw.Now().Sub(before); d < 4*time.Millisecond {
		t.Fatalf("clock advanced %v, want ≥ ~5ms delay", d)
	}
}

// TestDelayedProbeRTTIncludesDelay: a delay on the data plane is time the
// controller waited, so it shows in the RTT the probe reports as well as on
// the switch clock.
func TestDelayedProbeRTTIncludesDelay(t *testing.T) {
	sw, dev := testSwitch(t, Config{Seed: 8, Delay: 1.0, DelayMean: 5 * time.Millisecond, DelayStdDev: time.Microsecond})
	if err := probe.NewEngine(probe.SimDevice{S: sw}).Install(1, 100); err != nil {
		t.Fatal(err)
	}
	before := sw.Now()
	rtt, punted, err := probe.NewEngine(dev).Probe(1)
	if err != nil || punted {
		t.Fatalf("probe: punted=%v err=%v", punted, err)
	}
	if rtt < 4*time.Millisecond {
		t.Errorf("probe RTT %v, want ≥ ~5ms delay", rtt)
	}
	if d := sw.Now().Sub(before); d < rtt {
		t.Errorf("clock advanced %v, less than the %v RTT reported", d, rtt)
	}
	// An encoded packet takes the same switch: SendProbe is a one-packet
	// SendFrameN of its decoding.
	data, err := packet.BuildProbe(packet.ProbeSpec{FlowID: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rtt, punted, err := dev.SendProbe(data, 1); err != nil || punted || rtt < 4*time.Millisecond {
		t.Errorf("encoded probe: rtt=%v punted=%v err=%v, want forwarded and delayed", rtt, punted, err)
	}
}

// TestDuplicatedBurstIsOneMorePacket: a traffic burst is one control-channel
// message, so it draws one fault, and its duplicate is one more packet on the
// rule's counter — not a second burst.
func TestDuplicatedBurstIsOneMorePacket(t *testing.T) {
	sw := switchsim.New(switchsim.TestSwitch(8, switchsim.PolicyFIFO), switchsim.WithSeed(1))
	if err := probe.NewEngine(probe.SimDevice{S: sw}).Install(1, 100); err != nil {
		t.Fatal(err)
	}
	inj := NewInjector(Config{Seed: 6, Duplicate: 1.0})
	reg := telemetry.NewRegistry()
	inj.SetTelemetry(reg)
	const count = 5
	if err := probe.NewEngine(WrapDevice(probe.SimDevice{S: sw}, inj)).SendTraffic(1, count); err != nil {
		t.Fatal(err)
	}
	rep := sw.Handle(&openflow.StatsRequest{StatsType: openflow.StatsTypeAggregate})[0].(*openflow.StatsReply)
	if got := rep.Aggregate.PacketCount; got != count+1 {
		t.Errorf("rule counted %d packets after a duplicated %d-packet burst, want %d", got, count, count+1)
	}
	if got := reg.Counter("faults.injected.total").Value(); got != 1 {
		t.Errorf("%d fault draws fired for one burst, want 1", got)
	}
}

func TestProbeFaults(t *testing.T) {
	sw, dev := testSwitch(t, Config{Seed: 9, Drop: 0.5, Delay: 0.5})
	healthy := probe.NewEngine(probe.SimDevice{S: sw})
	if err := healthy.Install(1, 100); err != nil {
		t.Fatal(err)
	}
	e := probe.NewEngine(dev)
	var drops, oks int
	for i := 0; i < 40; i++ {
		_, _, err := e.Probe(1)
		switch {
		case err == nil:
			oks++
		case errors.Is(err, ErrInjected):
			drops++
		default:
			t.Fatalf("probe %d: unexpected error %v", i, err)
		}
	}
	if drops == 0 || oks == 0 {
		t.Fatalf("drops=%d oks=%d, want a mix at 50/50 rates", drops, oks)
	}
}

// TestEngineRetryRecoversFromDrops is the integration check for the
// hardening: a lossy channel plus the engine's retry policy still executes
// every operation successfully.
func TestEngineRetryRecoversFromDrops(t *testing.T) {
	sw, dev := testSwitch(t, Config{Seed: 10, Drop: 0.3})
	e := probe.NewEngine(dev)
	e.Retry = probe.DefaultRetry
	for i := uint32(0); i < 32; i++ {
		if err := e.Install(i, 100); err != nil {
			t.Fatalf("install %d failed despite retry: %v", i, err)
		}
		if _, _, err := e.Probe(i); err != nil {
			t.Fatalf("probe %d failed despite retry: %v", i, err)
		}
	}
	// Ack-loss retries scrub before re-adding, so no duplicate slots: the
	// switch must hold exactly 8 TCAM + 24 software rules.
	tcam, _, software := sw.RuleCount()
	if tcam+software != 32 {
		t.Fatalf("%d rules resident, want 32 (scrubbed re-adds)", tcam+software)
	}
}

package conformance

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"tango/internal/core/infer"
	"tango/internal/core/probe"
	"tango/internal/faults"
	"tango/internal/openflow"
	"tango/internal/packet"
	"tango/internal/switchsim"
	"tango/internal/telemetry"
	"tango/internal/workload"
)

// testSwitch builds a small policy-cache switch and its faulty device.
func testSwitch(t *testing.T, cfg faults.Config) (*switchsim.Switch, probe.Device) {
	t.Helper()
	sw := switchsim.New(switchsim.TestSwitch(8, switchsim.PolicyFIFO), switchsim.WithSeed(1))
	return sw, newDevice(sw, faults.NewInjector(cfg), nil)
}

// TestNewDeviceNilInjectorIsPassThrough pins that nothing to inject and no
// background returns the bare switch.
func TestNewDeviceNilInjectorIsPassThrough(t *testing.T) {
	sw := switchsim.New(switchsim.TestSwitch(8, switchsim.PolicyFIFO))
	if dev := newDevice(sw, nil, nil); dev != probe.FrameDevice(probe.SimDevice{S: sw}) {
		t.Fatalf("newDevice(sw, nil, nil) = %T, want the bare switch", dev)
	}
}

// TestWrapBackgroundNil pins that no background is the identity, whether it
// arrives as a nil interface or as the nil driver an empty schedule yields —
// a non-nil interface that would dereference nil if stepped.
func TestWrapBackgroundNil(t *testing.T) {
	sw := switchsim.New(switchsim.TestSwitch(8, switchsim.PolicyLRU))
	bare := probe.FrameDevice(probe.SimDevice{S: sw})
	if got := newDevice(sw, nil, nil); got != bare {
		t.Errorf("newDevice(sw, nil, nil) = %T, want the bare switch", got)
	}
	if got := newDevice(sw, nil, NewChurnDriver(nil)); got != bare {
		t.Errorf("newDevice(sw, nil, nil driver) = %T, want the bare switch", got)
	}
}

// TestWrapBackgroundKeepsFastPaths: that the interposer is a FrameDevice is
// the compile-time assertion beside its type; what is left to check at run
// time is that the label it forwards is the switch's.
func TestWrapBackgroundKeepsFastPaths(t *testing.T) {
	sw := switchsim.New(switchsim.TestSwitch(8, switchsim.PolicyLRU))
	dev := newDevice(sw, nil, &ChurnDriver{})
	if got, want := dev.TelemetryLabel(), sw.Profile().Name; got != want {
		t.Errorf("interposed label = %q, want the switch's %q", got, want)
	}
}

// TestNewDeviceIdentity pins that any injector interposes, with or without a
// background (the nil driver among them), and that an interposed switch
// keeps its name.
func TestNewDeviceIdentity(t *testing.T) {
	quiet := faults.Config{Seed: 1, Drop: 1e-300}
	for _, c := range []struct {
		name string
		bg   Background
	}{
		{"faults", nil},
		{"faults+nil driver", NewChurnDriver(nil)},
		{"faults+background", &ChurnDriver{}},
	} {
		sw := switchsim.New(switchsim.TestSwitch(8, switchsim.PolicyLRU))
		got := newDevice(sw, faults.NewInjector(quiet), c.bg)
		if got == probe.FrameDevice(probe.SimDevice{S: sw}) {
			t.Errorf("%s: newDevice returned the bare switch, want it interposed", c.name)
		}
		if label, want := got.TelemetryLabel(), sw.Profile().Name; label != want {
			t.Errorf("%s: label = %q, want the switch's %q", c.name, label, want)
		}
	}
}

func TestDropReturnsTypedTimeout(t *testing.T) {
	sw, dev := testSwitch(t, faults.Config{Seed: 2, Drop: 1.0, DropTimeout: time.Millisecond})
	e := probe.NewEngine(dev)
	before := sw.Now()
	err := e.Install(1, 100)
	if err == nil {
		t.Fatal("dropped flow-mod reported success")
	}
	var fe *faults.Error
	if !errors.As(err, &fe) || fe.Kind != faults.KindDrop {
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
	sw, dev := testSwitch(t, faults.Config{Seed: 3, Drop: 1.0})
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
	_, dev := testSwitch(t, faults.Config{Seed: 4, Overflow: 1.0})
	e := probe.NewEngine(dev)
	err := e.Install(1, 100)
	if !errors.Is(err, switchsim.ErrTableFull) {
		t.Fatalf("overflow error %v does not wrap ErrTableFull", err)
	}
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatal("overflow error lost the injected marker")
	}
	if !probe.Transient(err) {
		t.Fatal("injected overflow must be transient")
	}
}

func TestResetClearsSwitchAndIsNotTransient(t *testing.T) {
	sw, _ := testSwitch(t, faults.Config{})
	healthy := probe.NewEngine(probe.SimDevice{S: sw})
	for i := uint32(0); i < 4; i++ {
		if err := healthy.Install(i, 100); err != nil {
			t.Fatal(err)
		}
	}
	dev := newDevice(sw, faults.NewInjector(faults.Config{Seed: 5, Reset: 1.0}), nil)
	err := probe.NewEngine(dev).Install(9, 100)
	var fe *faults.Error
	if !errors.As(err, &fe) || fe.Kind != faults.KindReset {
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
	sw, dev := testSwitch(t, faults.Config{Seed: 6, Duplicate: 1.0})
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
	sw, dev := testSwitch(t, faults.Config{Seed: 7, Reorder: 1.0})
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
	sw, dev := testSwitch(t, faults.Config{Seed: 8, Delay: 1.0, DelayMean: 5 * time.Millisecond, DelayStdDev: time.Microsecond})
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
	sw, dev := testSwitch(t, faults.Config{Seed: 8, Delay: 1.0, DelayMean: 5 * time.Millisecond, DelayStdDev: time.Microsecond})
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
	inj := faults.NewInjector(faults.Config{Seed: 6, Duplicate: 1.0})
	reg := telemetry.NewRegistry()
	inj.SetTelemetry(reg)
	const count = 5
	if err := probe.NewEngine(newDevice(sw, inj, nil)).SendTraffic(1, count); err != nil {
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
	sw, dev := testSwitch(t, faults.Config{Seed: 9, Drop: 0.5, Delay: 0.5})
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
		case errors.Is(err, faults.ErrInjected):
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
	sw, dev := testSwitch(t, faults.Config{Seed: 10, Drop: 0.3})
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

// TestFaultsWithBackgroundDeterministic runs one spec's whole inspection with
// live faults and a live churn tenant on the same device, twice: the two runs
// must agree on the model (or the error), the switch, its clock and the
// engine's ledger, so the composition replays from its seeds like each half.
func TestFaultsWithBackgroundDeterministic(t *testing.T) {
	spec := GenerateSpecs(1, cleanSeed)[0]
	type outcome struct {
		model          *infer.Model
		err            string
		sw             switchsim.Stats
		now            time.Time
		eng            probe.EngineStats
		applied        int
		faultsInjected int64
	}
	run := func() outcome {
		sw := switchsim.New(spec.Profile, switchsim.WithSeed(spec.Seed))
		inj := faults.NewInjector(faults.Config{Seed: 7, Drop: .02, Delay: .03, Duplicate: .01, Reorder: .01})
		reg := telemetry.NewRegistry()
		inj.SetTelemetry(reg)
		cd := NewChurnDriver(workload.Churn(workload.ChurnOptions{
			Flows: spec.CacheSize, Rate: 40, Duration: 5 * time.Minute, TouchFrac: 0.3, Seed: spec.Seed + 3,
		}))
		e := probe.NewEngine(newDevice(sw, inj, cd))
		e.Retry = probe.DefaultRetry
		m, err := infer.Inspect(e, infer.InspectOptions{
			Name: spec.Name,
			Size: infer.SizeOptions{Seed: spec.Seed + 1, MaxRules: 8 * spec.CacheSize},
		})
		o := outcome{model: m, sw: sw.Stats(), now: sw.Now(), eng: e.Stats(),
			applied: cd.Applied(), faultsInjected: reg.Counter("faults.injected.total").Value()}
		if err != nil {
			o.err = err.Error()
		}
		return o
	}
	a, b := run(), run()
	if a.applied == 0 || a.faultsInjected == 0 {
		t.Fatalf("vacuous: %d churn events applied, %d faults injected", a.applied, a.faultsInjected)
	}
	t.Logf("%s: %d churn events, %d faults, err %q", spec.Name, a.applied, a.faultsInjected, a.err)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("replay diverged:\n first: %+v\nsecond: %+v", a, b)
	}
}

// Package probe implements Tango's probing engine (§4): it applies Tango
// patterns — flow-mod sequences plus matching data traffic — to a switch
// and collects timing measurements. The engine is transport-agnostic: it
// drives anything satisfying Device, which both the in-process emulator
// adapter (SimDevice, virtual time) and the TCP controller
// (internal/ofconn.Controller, wall time) do.
package probe

import (
	"fmt"
	"time"

	"tango/internal/core/pattern"
	"tango/internal/flowtable"
	"tango/internal/openflow"
	"tango/internal/packet"
	"tango/internal/switchsim"
	"tango/internal/telemetry"
)

// Device is the switch-side contract the probing engine needs: confirmed
// flow-mods, probe packets with measured RTTs, and a clock consistent with
// those measurements.
type Device interface {
	// FlowMod applies the operation and returns once it has completed
	// (barrier semantics). Table-full rejections must return an error. fm is
	// the caller's to overwrite once the call returns: a device copies what
	// it keeps (the action slice excepted, which is shared and immutable).
	FlowMod(fm *openflow.FlowMod) error
	// SendProbe injects the frame and reports its round-trip time and
	// whether it was punted to the controller rather than forwarded.
	SendProbe(data []byte, inPort uint16) (rtt time.Duration, punted bool, err error)
	// Now returns the current time on the clock RTTs are measured against.
	Now() time.Time
}

// TrafficSender is the optional Device extension for sending a burst of
// identical packets in one call. Emulated switches support it natively;
// over a live OpenFlow channel the engine falls back to a packet loop.
type TrafficSender interface {
	SendTraffic(data []byte, inPort uint16, count int) error
}

// PipelinedDevice is the optional Device extension for control channels
// that can pipeline flow-mods (ofconn.Controller's asynchronous send path):
// FlowModBatch applies the ops in order with a shared trailing barrier and
// returns per-op outcomes — errs has len(fms), errs[i] nil when op i was
// accepted, and the second return reports channel-level failures only.
// Later ops still execute after a rejection (OpenFlow has no transactional
// abort). Devices that cannot pipeline — including SimDevice, whose virtual
// clock makes barriers free — simply don't implement it and keep the
// confirmed per-op path, which leaves emulator runs byte-identical.
type PipelinedDevice interface {
	FlowModBatch(fms []*openflow.FlowMod) ([]error, error)
}

// LabeledDevice is the optional Device extension reporting a stable
// switch/profile label. Engines auto-label themselves from it at
// construction, binding the per-switch probe.rtt_ns{switch=...} histogram
// child and the switch's flight-recorder track.
type LabeledDevice interface {
	TelemetryLabel() string
}

// FrameDevice is the optional Device extension for injecting a frame the
// engine already decoded, skipping the per-packet parse. size is the encoded
// length (it drives byte counters and latency models); the device must not
// retain f past the call. Results must be identical to sending the frame's
// encoding n times.
type FrameDevice interface {
	SendFrameN(f *packet.Frame, inPort uint16, size, n int) (rtt time.Duration, punted bool, err error)
}

// SimDevice adapts an emulated switch to the Device interface using its
// virtual clock, so probing an emulated switch is instantaneous in wall
// time while observing exactly the modelled latencies.
type SimDevice struct {
	S *switchsim.Switch
}

// FlowMod implements Device.
func (d SimDevice) FlowMod(fm *openflow.FlowMod) error { return d.S.FlowMod(fm) }

// SendProbe implements Device.
func (d SimDevice) SendProbe(data []byte, inPort uint16) (time.Duration, bool, error) {
	res, err := d.S.SendPacket(data, inPort)
	if err != nil {
		return 0, false, err
	}
	return res.RTT, res.Path == switchsim.PathControl, nil
}

// Now implements Device.
func (d SimDevice) Now() time.Time { return d.S.Now() }

// TelemetryLabel implements LabeledDevice with the profile name.
func (d SimDevice) TelemetryLabel() string { return d.S.Profile().Name }

// Sleep advances the switch's virtual clock, letting retry backoff and
// injected fault latencies charge simulated rather than wall time.
func (d SimDevice) Sleep(dur time.Duration) { d.S.Clock().Sleep(dur) }

// Reset power-cycles the underlying emulated switch (used by fault
// injection to model mid-probe agent restarts).
func (d SimDevice) Reset() { d.S.Reset() }

// SendTraffic implements TrafficSender with a single batched pipeline pass.
func (d SimDevice) SendTraffic(data []byte, inPort uint16, count int) error {
	_, err := d.S.SendPacketN(data, inPort, count)
	return err
}

// SendFrameN implements FrameDevice on the emulated switch's pre-decoded
// injection path.
func (d SimDevice) SendFrameN(f *packet.Frame, inPort uint16, size, n int) (time.Duration, bool, error) {
	res, err := d.S.SendFrameN(f, inPort, size, n)
	if err != nil {
		return 0, false, err
	}
	return res.RTT, res.Path == switchsim.PathControl, nil
}

// EngineStats is the engine's deterministic op ledger: plain counters
// incremented at the same points as the probe.* telemetry counters, but
// owned by the engine rather than a shared registry, so a caller that owns
// the engine can read exact per-switch deltas (ops issued between two
// reads) without snapshotting a registry or worrying about other engines'
// contributions. Like the engine itself it is not safe for concurrent use;
// cross-goroutine reads need an external happens-before (the fleet service
// reads a member's stats only after its worker finishes the round).
type EngineStats struct {
	// FlowMods counts flow-mod operations issued (install/modify/delete,
	// batched or serial).
	FlowMods int64
	// Probes counts measurement probes that completed without a channel
	// error; Punted counts the subset that missed and went to the agent.
	Probes int64
	Punted int64
	// Traffic counts data-plane packets sent by SendTraffic.
	Traffic int64
}

// Engine executes patterns against one device.
type Engine struct {
	dev Device
	// frameDev is dev's FrameDevice view, resolved once at construction;
	// nil when the device only accepts encoded packets.
	frameDev FrameDevice
	// pipeDev is dev's PipelinedDevice view; nil for serial-only devices.
	pipeDev PipelinedDevice
	// InPort is the ingress port probe frames claim; the default 1 works
	// for all emulated profiles.
	InPort uint16
	// Retry bounds recovery from transient channel failures; the zero
	// value keeps the engine single-attempt.
	Retry Retry
	// frame is the engine's one probe frame, built once and retargeted in
	// place to each flow probed: a probe frame is a pure function of its flow
	// ID and a FrameDevice may not retain it past the call, so there is
	// nothing to keep per flow. buf backs the encoded form devices without
	// the pre-decoded path (and retrying engines) are sent instead.
	frame packet.Frame
	buf   [64]byte
	// opScratch is the flow-mod every serial op path (Install, Modify,
	// Delete, Run, TimeOps) fills in place: the device send is synchronous
	// and devices copy what they keep, so a flow-mod per op would be pure
	// collector load.
	opScratch openflow.FlowMod

	// Telemetry handles. All nil-safe: an engine built with no registry
	// (and no process default installed) records nothing at no cost.
	reg        *telemetry.Registry
	tracer     *telemetry.Tracer
	mFlowMods  *telemetry.Counter
	mProbes    *telemetry.Counter
	mPunted    *telemetry.Counter
	mTraffic   *telemetry.Counter
	mRetries   *telemetry.Counter
	mExhausted *telemetry.Counter
	hRTT       *telemetry.Histogram
	// hRTTSw is the per-switch probe.rtt_ns{switch=...} child, bound by
	// SetLabel; nil on unlabeled engines, so the fleet aggregate hRTT keeps
	// its meaning either way.
	hRTTSw *telemetry.Histogram
	// flightRec/flight feed the per-switch RTT flight recorder: flight is
	// this engine's track in flightRec, bound by SetLabel.
	flightRec *telemetry.FlightRecorder
	flight    *telemetry.FlightTrack
	label     string

	// stats is the per-engine op ledger; see EngineStats.
	stats EngineStats
}

// Stats returns the engine's op ledger since construction. Callers diff two
// reads for per-interval deltas.
func (e *Engine) Stats() EngineStats { return e.stats }

// NewEngine returns an engine driving dev, bound to the process-wide
// default telemetry (a no-op unless a command installed one). Devices that
// report a label (LabeledDevice — every SimDevice does) are auto-labeled,
// so their RTTs land in the per-switch histogram child and flight track
// without any caller wiring.
func NewEngine(dev Device) *Engine {
	e := &Engine{dev: dev, InPort: 1}
	packet.BuildProbeFrame(&e.frame, packet.ProbeSpec{})
	e.frameDev, _ = dev.(FrameDevice)
	e.pipeDev, _ = dev.(PipelinedDevice)
	e.flightRec = telemetry.DefaultFlight()
	e.SetTelemetry(telemetry.Default(), telemetry.DefaultTracer())
	if ld, ok := dev.(LabeledDevice); ok {
		e.SetLabel(ld.TelemetryLabel())
	}
	return e
}

// SetTelemetry rebinds the engine's metrics and tracer. Either argument may
// be nil to disable that half. A label bound earlier is re-applied against
// the new registry.
func (e *Engine) SetTelemetry(reg *telemetry.Registry, tr *telemetry.Tracer) {
	e.reg = reg
	e.tracer = tr
	e.mFlowMods = reg.Counter("probe.flowmods")
	e.mProbes = reg.Counter("probe.probes_sent")
	e.mPunted = reg.Counter("probe.punted")
	e.mTraffic = reg.Counter("probe.traffic_packets")
	e.mRetries = reg.Counter("probe.retries")
	e.mExhausted = reg.Counter("probe.retry_exhausted")
	e.hRTT = reg.Histogram("probe.rtt_ns")
	e.hRTTSw = nil
	if e.label != "" {
		e.SetLabel(e.label)
	}
}

// SetFlight rebinds the engine's flight recorder (picked up from
// telemetry.DefaultFlight at construction). The current label's track is
// rebound; pass nil to stop recording flight samples.
func (e *Engine) SetFlight(fr *telemetry.FlightRecorder) {
	e.flightRec = fr
	e.flight = nil
	if e.label != "" {
		e.SetLabel(e.label)
	}
}

// SetLabel names the switch this engine probes. It binds the per-switch
// probe.rtt_ns{switch=label} histogram child (observed alongside the fleet
// aggregate) and the label's flight-recorder track. An empty label unbinds
// both. Engines over labeled devices call this automatically at
// construction; fleets label TCP members by their member names.
func (e *Engine) SetLabel(label string) {
	e.label = label
	if label == "" {
		e.hRTTSw = nil
		e.flight = nil
		return
	}
	e.hRTTSw = e.reg.HistogramVec("probe.rtt_ns", "switch").With(label)
	e.flight = e.flightRec.Track(label)
}

// Label returns the switch label bound by SetLabel ("" when unlabeled).
func (e *Engine) Label() string { return e.label }

// Tracer returns the engine's tracer (possibly nil). The inference
// algorithms use it to emit probe.round / infer.size spans on the device's
// virtual timeline.
func (e *Engine) Tracer() *telemetry.Tracer { return e.tracer }

// Device returns the engine's device.
func (e *Engine) Device() Device { return e.dev }

// flowMod issues one flow-mod through the device, counting it and retrying
// transient channel failures under the engine's Retry policy. Re-attempted
// adds are scrubbed first (strict-delete of the same match/priority):
// after an ack-loss the rule may already be installed, and a blind re-add
// would leak a duplicate table slot.
func (e *Engine) flowMod(fm *openflow.FlowMod) error {
	e.mFlowMods.Add(1)
	e.stats.FlowMods++
	if !e.Retry.enabled() {
		// Single-attempt engines skip withRetry: with retry disabled it is
		// exactly one attempt, and the closure it would take heap-allocates
		// per call — pure garbage on the bulk-install path.
		return e.dev.FlowMod(fm)
	}
	var scrub func()
	if fm.Command == openflow.FlowAdd && e.Retry.enabled() {
		scrub = func() {
			del := &openflow.FlowMod{
				Command:  openflow.FlowDeleteStrict,
				Match:    fm.Match,
				Priority: fm.Priority,
			}
			_ = e.dev.FlowMod(del) // best effort; a no-op delete is not an error
		}
	}
	return e.withRetry("flowmod", func() error { return e.dev.FlowMod(fm) }, scrub)
}

// encoded mints flow id's wire bytes into the engine's buffer, for the
// devices and retry paths that take an encoded packet. The result is only
// valid until the next call.
func (e *Engine) encoded(id uint32) ([]byte, error) {
	return packet.AppendBuildProbe(e.buf[:0], packet.ProbeSpec{FlowID: id})
}

// Shared action slices for probe flow-mods. Devices retain (but never
// mutate) the action slice of an installed rule, so all probe rules can
// alias these two.
var (
	probeActions  = flowtable.Output(2)
	modifyActions = flowtable.Output(3) // modify to a different action
)

// fillFlowMod populates fm in place for one pattern op, so batch paths can
// reuse a single scratch struct instead of allocating per op. The actions
// alias the shared slices above and must not be mutated.
func fillFlowMod(fm *openflow.FlowMod, op pattern.Op) {
	*fm = openflow.FlowMod{
		Match:    flowtable.ExactProbeMatch(op.FlowID),
		Priority: op.Priority,
		Actions:  probeActions,
	}
	switch op.Kind {
	case pattern.OpAdd:
		fm.Command = openflow.FlowAdd
	case pattern.OpMod:
		fm.Command = openflow.FlowModifyStrict
		fm.Actions = modifyActions
	case pattern.OpDel:
		fm.Command = openflow.FlowDeleteStrict
		fm.Actions = nil
	}
}

// Install adds the probe rule for flow id at the given priority.
func (e *Engine) Install(id uint32, priority uint16) error {
	fillFlowMod(&e.opScratch, pattern.Op{Kind: pattern.OpAdd, FlowID: id, Priority: priority})
	return e.flowMod(&e.opScratch)
}

// Modify rewrites the actions of flow id's rule.
func (e *Engine) Modify(id uint32, priority uint16) error {
	fillFlowMod(&e.opScratch, pattern.Op{Kind: pattern.OpMod, FlowID: id, Priority: priority})
	return e.flowMod(&e.opScratch)
}

// Delete removes flow id's rule.
func (e *Engine) Delete(id uint32, priority uint16) error {
	fillFlowMod(&e.opScratch, pattern.Op{Kind: pattern.OpDel, FlowID: id, Priority: priority})
	return e.flowMod(&e.opScratch)
}

// Probe sends flow id's frame and returns its RTT and whether it punted.
// Transient send failures retry under the engine's Retry policy.
func (e *Engine) Probe(id uint32) (time.Duration, bool, error) {
	var (
		rtt    time.Duration
		punted bool
		err    error
	)
	if e.frameDev != nil && !e.Retry.enabled() {
		// Single-attempt fast path: no retry closure, and devices that take
		// pre-decoded frames skip the per-probe encode and parse.
		packet.RetargetProbeFrame(&e.frame, id)
		rtt, punted, err = e.frameDev.SendFrameN(&e.frame, e.InPort, packet.ProbeFrameLen, 1)
	} else if data, berr := e.encoded(id); berr != nil {
		return 0, false, berr
	} else if !e.Retry.enabled() {
		rtt, punted, err = e.dev.SendProbe(data, e.InPort)
	} else {
		err = e.withRetry("probe", func() error {
			var aerr error
			rtt, punted, aerr = e.dev.SendProbe(data, e.InPort)
			return aerr
		}, nil)
	}
	if err == nil {
		e.mProbes.Add(1)
		e.stats.Probes++
		e.hRTT.Observe(float64(rtt))
		// Labeled/flight recording guards explicitly rather than leaning on
		// nil-safe receivers: unlabeled engines skip the calls outright, so
		// the per-probe overhead of the uninstrumented path is two compares.
		if e.hRTTSw != nil {
			e.hRTTSw.Observe(float64(rtt))
		}
		if e.flight != nil {
			e.flight.Record(e.dev.Now(), time.Now(), rtt, id, punted)
		}
		if punted {
			e.mPunted.Add(1)
			e.stats.Punted++
		}
	}
	return rtt, punted, err
}

// SendTraffic drives flow id's packet counter up by count packets, using
// the device's batched path when available.
func (e *Engine) SendTraffic(id uint32, count int) error {
	if count <= 0 {
		return nil
	}
	if e.frameDev != nil && !e.Retry.enabled() {
		packet.RetargetProbeFrame(&e.frame, id)
		if _, _, err := e.frameDev.SendFrameN(&e.frame, e.InPort, packet.ProbeFrameLen, count); err != nil {
			return err
		}
		e.mTraffic.Add(int64(count))
		e.stats.Traffic += int64(count)
		return nil
	}
	data, err := e.encoded(id)
	if err != nil {
		return err
	}
	if ts, ok := e.dev.(TrafficSender); ok {
		if err := e.withRetry("traffic", func() error {
			return ts.SendTraffic(data, e.InPort, count)
		}, nil); err != nil {
			return err
		}
		e.mTraffic.Add(int64(count))
		e.stats.Traffic += int64(count)
		return nil
	}
	for i := 0; i < count; i++ {
		if err := e.withRetry("traffic", func() error {
			_, _, aerr := e.dev.SendProbe(data, e.InPort)
			return aerr
		}, nil); err != nil {
			return err
		}
		e.mTraffic.Add(1)
		e.stats.Traffic++
	}
	return nil
}

// ProbeN sends flow id's frame n times, returning the last RTT.
func (e *Engine) ProbeN(id uint32, n int) (time.Duration, bool, error) {
	var (
		rtt    time.Duration
		punted bool
		err    error
	)
	for i := 0; i < n; i++ {
		rtt, punted, err = e.Probe(id)
		if err != nil {
			return rtt, punted, err
		}
	}
	return rtt, punted, nil
}

// Run executes a pattern: every op in sequence (timed individually), then
// the traffic steps. Op errors abort the run.
func (e *Engine) Run(p pattern.Pattern) (pattern.Result, error) {
	res := pattern.Result{Pattern: p.Name, Ops: make([]pattern.OpTiming, 0, len(p.Ops))}
	start := e.dev.Now()
	for _, op := range p.Ops {
		opStart := e.dev.Now()
		fillFlowMod(&e.opScratch, op)
		if err := e.flowMod(&e.opScratch); err != nil {
			return res, fmt.Errorf("probe: op %s flow %d: %w", op.Kind, op.FlowID, err)
		}
		res.Ops = append(res.Ops, pattern.OpTiming{Op: op, Latency: e.dev.Now().Sub(opStart)})
		if op.SendProbe {
			if _, _, err := e.Probe(op.FlowID); err != nil {
				return res, err
			}
		}
	}
	for _, ts := range p.Traffic {
		for i := 0; i < ts.Count; i++ {
			if _, _, err := e.Probe(ts.FlowID); err != nil {
				return res, err
			}
		}
	}
	res.Total = e.dev.Now().Sub(start)
	if e.tracer != nil {
		e.tracer.Record("probe.pattern", "", start, res.Total,
			map[string]any{"pattern": p.Name, "ops": len(p.Ops)})
	}
	return res, nil
}

// TimeOps executes ops (without traffic) and returns only the total time —
// the measurement the scheduler experiments need.
func (e *Engine) TimeOps(ops []pattern.Op) (time.Duration, error) {
	start := e.dev.Now()
	for _, op := range ops {
		fillFlowMod(&e.opScratch, op)
		if err := e.flowMod(&e.opScratch); err != nil {
			return e.dev.Now().Sub(start), err
		}
	}
	return e.dev.Now().Sub(start), nil
}

// Pipelined reports whether batch operations will ride the device's
// pipelined path. Retry-hardened engines stay serial: the retry policy's
// scrub-and-reissue semantics are defined per confirmed op, not per batch.
func (e *Engine) Pipelined() bool {
	return e.pipeDev != nil && !e.Retry.enabled()
}

// InstallBatch installs the probe rules for ids, all at priority p, and
// returns how many of the leading ids are now installed. Over a pipelined
// channel the whole batch shares trailing barriers (one per in-flight
// window) instead of paying a round trip per rule; the serial fallback
// loops confirmed Installs. Both paths stop counting at the first
// rejection, and for an add-only batch that leaves identical table state —
// once a table rejects an add, it rejects every later one too — so the two
// are interchangeable: same count, same resident rules, same error.
func (e *Engine) InstallBatch(ids []uint32, p uint16) (int, error) {
	if !e.Pipelined() {
		for i, id := range ids {
			if err := e.Install(id, p); err != nil {
				return i, err
			}
		}
		return len(ids), nil
	}
	errs, err := e.pipeline(len(ids), func(i int) pattern.Op {
		return pattern.Op{Kind: pattern.OpAdd, FlowID: ids[i], Priority: p}
	})
	if err != nil {
		return 0, err
	}
	for i, opErr := range errs {
		if opErr != nil {
			return i, opErr
		}
	}
	return len(ids), nil
}

// ClearBatch deletes the probe rules for flows [base, base+n) at priority
// p, batched over the pipelined path when available. Deletes go out in the
// same ascending order as the serial loop and rejections are ignored (a
// no-op delete is not an error), so both paths leave identical state.
func (e *Engine) ClearBatch(base, n uint32, p uint16) {
	if !e.Pipelined() {
		for id := base; id < base+n; id++ {
			_ = e.Delete(id, p)
		}
		return
	}
	_, _ = e.pipeline(int(n), func(i int) pattern.Op {
		return pattern.Op{Kind: pattern.OpDel, FlowID: base + uint32(i), Priority: p}
	})
}

// pipeline counts and sends the n flow-mods op yields down the pipelined
// path. FlowModBatch takes the batch whole, so its ops cannot share the
// serial scratch; each is its own allocation, because carving all n from one
// slice — a large-object allocation per batch — measured 4% slower on
// channel_tcp than n small ones.
func (e *Engine) pipeline(n int, op func(i int) pattern.Op) ([]error, error) {
	fms := make([]*openflow.FlowMod, n)
	for i := range fms {
		fms[i] = new(openflow.FlowMod)
		fillFlowMod(fms[i], op(i))
	}
	e.mFlowMods.Add(int64(n))
	e.stats.FlowMods += int64(n)
	return e.pipeDev.FlowModBatch(fms)
}

// ClearProbeRules removes the probe rules for flows [base, base+n) at
// priority p, restoring a switch between probing rounds.
func (e *Engine) ClearProbeRules(base, n uint32, p uint16) {
	e.ClearBatch(base, n, p)
}

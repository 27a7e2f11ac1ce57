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

// Device is the whole switch-side contract: confirmed flow-mods, probe
// packets with measured RTTs, a clock consistent with those measurements,
// and a name. It comes in two kinds — FrameDevice (in-process) and
// PipelinedDevice (wire) — and NewEngine asks which it was given, once; a
// device of neither kind is driven as a wire that cannot pipeline.
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
	// Sleep charges d (retry backoff, injected fault latency) against that
	// clock: the emulator advances virtual time, a socket blocks.
	Sleep(d time.Duration)
	// TelemetryLabel names the switch. The engine binds its per-switch
	// probe.rtt_ns{switch=...} histogram child and flight-recorder track to
	// it at construction; "" leaves the engine unlabeled.
	TelemetryLabel() string
}

// FrameDevice is the in-process kind — the emulator and whatever wraps it.
// It takes the frame the engine already decoded, skipping the per-packet
// parse, and a burst of n identical packets is one call. size is the encoded
// length (it drives byte counters and latency models); the device must not
// retain f past the call. Results must be identical to sending the frame's
// encoding n times.
type FrameDevice interface {
	Device
	SendFrameN(f *packet.Frame, inPort uint16, size, n int) (rtt time.Duration, punted bool, err error)
}

// PipelinedDevice is the wire kind — a control channel that can pipeline
// flow-mods (ofconn.Controller's asynchronous send path): FlowModBatch
// applies the ops in order with a shared trailing barrier and returns per-op
// outcomes — errs is nil when every op was accepted, and otherwise has
// len(fms), errs[i] nil when op i was accepted — and the second return
// reports channel-level failures only. Later ops still execute
// after a rejection (OpenFlow has no transactional abort). An in-process
// device has no batch: a batching emulator allocates per batch and changes
// Algorithm 1's results (DESIGN §13), so it keeps the confirmed per-op path.
type PipelinedDevice interface {
	Device
	FlowModBatch(fms []*openflow.FlowMod) ([]error, error)
}

// SimDevice adapts an emulated switch to FrameDevice using its virtual
// clock, so probing an emulated switch is instantaneous in wall time while
// observing exactly the modelled latencies.
type SimDevice struct {
	S *switchsim.Switch
}

var _ FrameDevice = SimDevice{}

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

// TelemetryLabel implements Device with the profile name.
func (d SimDevice) TelemetryLabel() string { return d.S.Profile().Name }

// Sleep implements Device by advancing the switch's virtual clock.
func (d SimDevice) Sleep(dur time.Duration) { d.S.Clock().Sleep(dur) }

// Reset power-cycles the underlying emulated switch (used by fault
// injection to model mid-probe agent restarts).
func (d SimDevice) Reset() { d.S.Reset() }

// SendTraffic is a burst of an encoded packet. Nothing in this module calls
// it: benchmark/wrappers.go, which may not change between re-baselines,
// overrides it by name. It goes at the next benchmark re-baseline.
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
}

// Engine executes patterns against one device.
type Engine struct {
	dev Device
	// frameDev and pipeDev are dev's view as its kind, resolved once at
	// construction; nil when dev is not of that kind.
	frameDev FrameDevice
	pipeDev  PipelinedDevice
	// InPort is the ingress port probe frames claim; the default 1 works
	// for all emulated profiles.
	InPort uint16
	// Retry bounds recovery from transient channel failures; the zero
	// value keeps the engine single-attempt.
	Retry Retry
	// frame is the engine's one probe frame, built once and retargeted in
	// place to each flow probed: a probe frame is a pure function of its flow
	// ID and a FrameDevice may not retain it past the call, so there is
	// nothing to keep per flow. buf backs the encoded form a wire device is
	// sent instead.
	frame packet.Frame
	buf   [64]byte
	// opScratch is the flow-mod every serial op path (Install, Delete, Run,
	// TimeOps) fills in place: the device send is synchronous
	// and devices copy what they keep, so a flow-mod per op would be pure
	// collector load.
	opScratch openflow.FlowMod
	// slab and batch are the flow-mods of a pipelined batch and the pointers
	// FlowModBatch takes, grown to the largest batch and refilled by the
	// next: the device serializes a batch before it returns.
	slab  []openflow.FlowMod
	batch []*openflow.FlowMod
	// lat backs the latencies Run returns, grown to the longest pattern and
	// refilled by the next Run.
	lat []time.Duration

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
// default telemetry (a no-op unless a command installed one) and labeled
// with the device's TelemetryLabel, so its RTTs land in the per-switch
// histogram child and flight track without any caller wiring. The two
// assertions below are the only place a device is asked what kind it is;
// they look at the method set of the value handed in, so a wrapper that
// embeds a device and overrides methods by name is seen on every call.
func NewEngine(dev Device) *Engine {
	e := &Engine{dev: dev, InPort: 1}
	packet.BuildProbeFrame(&e.frame, packet.ProbeSpec{})
	e.frameDev, _ = dev.(FrameDevice)
	e.pipeDev, _ = dev.(PipelinedDevice)
	e.flightRec = telemetry.DefaultFlight()
	e.SetTelemetry(telemetry.Default(), telemetry.DefaultTracer())
	e.SetLabel(dev.TelemetryLabel())
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
// both. NewEngine calls this with the device's own label; fleets relabel TCP
// members by their member names.
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
	err := e.dev.FlowMod(fm)
	if err == nil {
		return nil
	}
	var scrub func()
	if fm.Command == openflow.FlowAdd {
		scrub = func() {
			del := &openflow.FlowMod{
				Command:  openflow.FlowDeleteStrict,
				Match:    fm.Match,
				Priority: fm.Priority,
			}
			_ = e.dev.FlowMod(del) // best effort; a no-op delete is not an error
		}
	}
	return e.retry("flowmod", err, func() error { return e.dev.FlowMod(fm) }, scrub)
}

// send makes one attempt at putting flow id's probe packet on the device: the
// engine's frame retargeted in place and sent as one n-packet burst on a
// FrameDevice, one encoded packet (n is 1) on a wire.
func (e *Engine) send(id uint32, n int) (time.Duration, bool, error) {
	if e.frameDev != nil {
		packet.RetargetProbeFrame(&e.frame, id)
		return e.frameDev.SendFrameN(&e.frame, e.InPort, packet.ProbeFrameLen, n)
	}
	data, err := packet.AppendBuildProbe(e.buf[:0], packet.ProbeSpec{FlowID: id})
	if err != nil {
		return 0, false, err
	}
	return e.dev.SendProbe(data, e.InPort)
}

// sendRetry is send with transient failures retried under the engine's Retry
// policy.
func (e *Engine) sendRetry(op string, id uint32, n int) (time.Duration, bool, error) {
	rtt, punted, err := e.send(id, n)
	if err != nil {
		err = e.retry(op, err, func() (aerr error) {
			rtt, punted, aerr = e.send(id, n)
			return aerr
		}, nil)
	}
	return rtt, punted, err
}

// Shared action slices for probe flow-mods. Devices retain (but never
// mutate) the action slice of an installed rule, so all probe rules can
// alias these two.
var (
	probeActions  = flowtable.Output(2)
	modifyActions = flowtable.Output(3) // modify to a different action
)

// fillFlowMod populates fm in place for one pattern op, so batch paths can
// reuse a single scratch struct instead of allocating per op. Every field
// is set one by one: a FlowMod literal assigned through fm would be built
// on the stack and copied whole. The actions alias the shared slices above
// and must not be mutated.
func fillFlowMod(fm *openflow.FlowMod, op pattern.Op) {
	fm.Header = openflow.Header{}
	fm.Match = flowtable.ExactProbeMatch(op.FlowID)
	fm.Cookie = 0
	fm.IdleTimeout, fm.HardTimeout = 0, 0
	fm.Priority = op.Priority
	fm.BufferID, fm.OutPort, fm.Flags = 0, 0, 0
	switch op.Kind {
	case pattern.OpMod:
		fm.Command, fm.Actions = openflow.FlowModifyStrict, modifyActions
	case pattern.OpDel:
		fm.Command, fm.Actions = openflow.FlowDeleteStrict, nil
	default:
		fm.Command, fm.Actions = openflow.FlowAdd, probeActions
	}
}

// Install adds the probe rule for flow id at the given priority.
func (e *Engine) Install(id uint32, priority uint16) error {
	fillFlowMod(&e.opScratch, pattern.Op{Kind: pattern.OpAdd, FlowID: id, Priority: priority})
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
	rtt, punted, err := e.sendRetry("probe", id, 1)
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

// SendTraffic drives flow id's packet counter up by count packets: one burst
// on a FrameDevice, count packets — each retried on its own — on a wire.
func (e *Engine) SendTraffic(id uint32, count int) error {
	burst := count
	if e.frameDev == nil {
		burst = 1
	}
	for sent := 0; sent < count; sent += burst {
		if _, _, err := e.sendRetry("traffic", id, burst); err != nil {
			return err
		}
		e.mTraffic.Add(int64(burst))
	}
	return nil
}

// Run executes a pattern: every op in sequence (timed individually), then
// the traffic steps. Op errors abort the run. The result's Latencies are the
// engine's buffer, valid until its next Run.
func (e *Engine) Run(p pattern.Pattern) (pattern.Result, error) {
	if cap(e.lat) < len(p.Ops) {
		e.lat = make([]time.Duration, 0, len(p.Ops))
	}
	res := pattern.Result{Latencies: e.lat[:0]}
	start := e.dev.Now()
	for _, op := range p.Ops {
		opStart := e.dev.Now()
		fillFlowMod(&e.opScratch, op)
		if err := e.flowMod(&e.opScratch); err != nil {
			return res, fmt.Errorf("probe: op %s flow %d: %w", op.Kind, op.FlowID, err)
		}
		res.Latencies = append(res.Latencies, e.dev.Now().Sub(opStart))
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

// pipelined reports whether batch operations will ride the device's
// pipelined path. Retry-hardened engines stay serial: the retry policy's
// scrub-and-reissue semantics are defined per confirmed op, not per batch.
func (e *Engine) pipelined() bool {
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
	if !e.pipelined() {
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
	if !e.pipelined() {
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
// serial scratch; they are filled in the engine's slab instead, which only
// the first batch of each new size high-water mark allocates.
func (e *Engine) pipeline(n int, op func(i int) pattern.Op) ([]error, error) {
	if n > len(e.slab) {
		e.slab = make([]openflow.FlowMod, n)
		e.batch = make([]*openflow.FlowMod, n)
		for i := range e.slab {
			e.batch[i] = &e.slab[i]
		}
	}
	fms := e.batch[:n]
	for i, fm := range fms {
		fillFlowMod(fm, op(i))
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

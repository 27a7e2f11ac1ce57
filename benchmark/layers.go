package main

import (
	"fmt"
	"io"
	"math/rand"
	"net/netip"
	"path/filepath"
	"runtime"
	"time"

	"tango"
	"tango/internal/cluster"
	"tango/internal/core/infer"
	"tango/internal/core/probe"
	"tango/internal/core/sched"
	"tango/internal/dag"
	"tango/internal/experiments"
	"tango/internal/fleet"
	"tango/internal/flowtable"
	"tango/internal/ofconn"
	"tango/internal/openflow"
	"tango/internal/packet"
	"tango/internal/simclock"
	"tango/internal/stats"
	"tango/internal/switchsim"
	"tango/internal/telemetry"
)

// The traced run. It measures the workload twice at once — one instance bare
// for the baseline, one with the wrappers installed, whole cycles in turn —
// and then runs the layer probes: calls into each layer's public functions on inputs
// shaped like the workloads'. The probes do not depend on the workload, so
// every traced run reports every per-layer metric; the budget rows and the
// harness metrics are the workload's own.

// budgetLayers are the rows a budget can have, in the order of the probe
// path. A row is zero on a workload that does not reach the layer — or
// reaches it only beneath a boundary the benchmark cannot wrap from outside
// (flowtable and packet sit inside switchsim; everything sits inside fleet).
var budgetLayers = []string{"infer", "probe", "ofconn", "switchsim", "sched", "sched.order", "pattern", "fleet"}

// tracedShare is the part of -seconds the traced run spends on the two
// alternating instances; the layer probes take about as long again.
const tracedShare = 0.6

type metricSet map[string]metricValue

func (ms metricSet) add(name, unit string, v float64) { ms[name] = metricValue{v, unit} }

func runTraced(w io.Writer, d workloadDef, cfg config) (result, error) {
	ms := metricSet{}
	bare, _, err := newLane(d, cfg.seed, nil, nil)
	if err != nil {
		return result{}, err
	}
	tr := newTracer(d.rootLayer, maxSpans)
	traced, _, err := newLane(d, cfg.seed, tr, nil)
	if err != nil {
		bare.w.finish()
		return result{}, err
	}
	measure(tracedShare*cfg.seconds, nil, bare, traced)
	finishChecked(w, bare)
	finishChecked(w, traced)
	base, win := bare.win, traced.win
	fmt.Fprintf(w, "%d untraced and %d traced ops, cycles alternating\n", base.ops, win.ops)
	path, err := tr.writeFile(cfg.out, d.name)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(w, "trace: %s (%d spans, %d dropped)\n", filepath.ToSlash(path), len(tr.spans), tr.dropped)

	b := tr.budget()
	b.print(w, d.name)
	ms.add("budget.op_us", "us", b.opUS)
	for _, l := range budgetLayers {
		ms.add("budget."+l+"_us", "us", b.layerUS(l))
	}
	ms.add("budget.unattributed_us", "us", b.unattributed)
	ms.add("budget.unattributed_share", "ratio", b.unattributed/b.opUS)
	ms.add("budget.overlap_us", "us", b.overlap)
	ms.add("switchsim.busy_share", "ratio", b.layerUS("switchsim")/b.opUS)
	ms.add("harness.trace_overhead_ratio", "ratio", win.cycleS/base.cycleS)
	ms.add("harness.gc_pause_ms", "ms", win.gcPauseMS)
	ms.add("harness.op_ms_p50", "ms", base.p50)
	ms.add("harness.op_ms_p95", "ms", base.p95)
	ms.add("harness.cpu_ms_per_op", "ms", base.cpuMSPerOp)

	p := &prober{seed: cfg.seed, ms: ms}
	p.all()
	for _, f := range p.failures {
		fmt.Fprintln(w, "  FAILED: layer probe:", f)
	}
	attempted := base.attempted + win.attempted + p.attempted
	failed := base.failed + win.failed + len(p.failures)
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: ms}, nil
}

// prober runs the layer probes and collects their metrics.
type prober struct {
	seed      int64
	ms        metricSet
	attempted int
	failures  []string
}

// try runs one probe; a probe that cannot measure reports why and leaves
// its metrics at zero, which fails the run.
func (p *prober) try(name string, f func() error) {
	p.attempted++
	if err := f(); err != nil {
		p.failures = append(p.failures, name+": "+err.Error())
	}
}

func (p *prober) all() {
	p.ms.add("harness.calibration_ms", "ms", calibrate())
	p.try("packet", p.packet)
	p.try("openflow", p.openflow)
	p.try("flowtable", p.flowtable)
	p.try("switchsim", p.switchsim)
	p.try("switchsim policies", p.policies)
	p.try("probe", p.probe)
	p.try("ofconn", p.ofconn)
	p.try("infer", p.infer)
	p.try("infer over tcp", p.inferTCP)
	p.try("cluster and stats", p.math)
	p.try("sched", p.sched)
	p.try("dag", p.dag)
	p.try("fleet", p.fleet)
	p.try("telemetry", p.telemetry)
	// Every name must be present even after a failed probe: the result's
	// key set is part of the contract.
	for _, d := range perLayerDefs {
		if _, ok := p.ms[d.name]; !ok {
			p.ms.add(d.name, d.unit, 0)
		}
	}
}

// probeBatches is how many timed batches a micro-measurement takes.
const probeBatches = 7

// nsPer runs f — which performs n operations — probeBatches times after one
// warm-up and returns the nanoseconds per operation: the mean of the batches
// with the fastest and the slowest dropped.
func nsPer(n int, f func()) float64 {
	f()
	per := make([]float64, probeBatches)
	for i := range per {
		t0 := time.Now()
		f()
		per[i] = float64(time.Since(t0)) / float64(n)
	}
	return trimmedMean(per, 0.15)
}

// allocsPer returns heap objects allocated per operation by f, which
// performs n operations.
func allocsPer(n int, f func()) float64 {
	var m0, m1 runtime.MemStats
	f()
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// calibrate times a fixed integer/hash loop, so snapshots taken on different
// hosts can be normalised.
func calibrate() float64 {
	var sink uint64
	ms := nsPer(1, func() {
		h := uint64(14695981039346656037)
		for i := uint64(0); i < 1<<22; i++ {
			h ^= i
			h *= 1099511628211
			h ^= h >> 29
		}
		sink += h
	}) / 1e6
	runtime.KeepAlive(sink)
	return ms
}

func (p *prober) packet() error {
	const n = 20000
	base := uint32(p.seed) & 0xffff
	buf := make([]byte, 0, 128)
	var f packet.Frame
	var err error
	build := func() {
		for i := uint32(0); i < n; i++ {
			if buf, err = packet.AppendBuildProbe(buf[:0], packet.ProbeSpec{FlowID: base + i}); err != nil {
				return
			}
		}
	}
	decode := func() {
		for i := 0; i < n; i++ {
			if err = packet.DecodeInto(&f, buf); err != nil {
				return
			}
		}
	}
	p.ms.add("packet.build_probe_ns", "ns", nsPer(n, build))
	p.ms.add("packet.decode_ns", "ns", nsPer(n, decode))
	p.ms.add("packet.allocs_per_frame", "count", allocsPer(n, func() { build(); decode() }))
	return err
}

func (p *prober) openflow() error {
	const n = 20000
	fm := &openflow.FlowMod{
		Command: openflow.FlowAdd, Match: flowtable.ExactProbeMatch(uint32(p.seed) & 0xffff),
		Priority: 1000, Actions: flowtable.Output(2),
	}
	frame, err := packet.BuildProbe(packet.ProbeSpec{FlowID: 7})
	if err != nil {
		return err
	}
	po := &openflow.PacketOut{BufferID: 0xffffffff, InPort: 1, Data: frame}
	pi := &openflow.PacketIn{BufferID: 0xffffffff, TotalLen: uint16(len(frame)), InPort: 1, Reason: openflow.ReasonAction, Data: frame}
	wire := make([]byte, 0, 256)
	marshal := func() {
		for i := 0; i < n; i++ {
			wire = fm.Marshal(wire[:0])
		}
	}
	decode := func() {
		for i := 0; i < n; i++ {
			if _, err = openflow.Decode(wire); err != nil {
				return
			}
		}
	}
	p.ms.add("openflow.flowmod_marshal_ns", "ns", nsPer(n, marshal))
	p.ms.add("openflow.flowmod_decode_ns", "ns", nsPer(n, decode))
	p.ms.add("openflow.allocs_per_msg", "count", allocsPer(n, func() { marshal(); decode() }))
	pw := make([]byte, 0, 256)
	roundTrip := func(m openflow.Message) func() {
		return func() {
			for i := 0; i < n; i++ {
				pw = m.Marshal(pw[:0])
				if _, err = openflow.Decode(pw); err != nil {
					return
				}
			}
		}
	}
	p.ms.add("openflow.packetout_roundtrip_ns", "ns", nsPer(n, roundTrip(po)))
	p.ms.add("openflow.packetin_roundtrip_ns", "ns", nsPer(n, roundTrip(pi)))
	return err
}

func (p *prober) flowtable() error {
	const n = 2048
	now := simclock.Epoch
	rules := func(prio func(i int) uint16) []*flowtable.Rule {
		rs := make([]*flowtable.Rule, n)
		for i := range rs {
			rs[i] = &flowtable.Rule{Match: flowtable.ExactProbeMatch(uint32(i)), Priority: prio(i), Actions: flowtable.Output(2)}
		}
		return rs
	}
	var err error
	var shifted int
	fill := func(rs []*flowtable.Rule) func() {
		return func() {
			t := &flowtable.Table{}
			shifted = 0
			for _, r := range rs {
				var s int
				if s, err = t.Insert(r, now); err != nil {
					return
				}
				shifted += s
			}
		}
	}
	p.ms.add("flowtable.insert_same_prio_ns", "ns", nsPer(n, fill(rules(func(int) uint16 { return 1000 }))))
	// Ascending priority: every insert lands above the resident rules and
	// displaces all of them — the shifted insert.
	p.ms.add("flowtable.insert_shift_ns", "ns", nsPer(n, fill(rules(func(i int) uint16 { return uint16(1000 + i) }))))
	p.ms.add("flowtable.shifted_per_insert", "count", float64(shifted)/n)
	if err != nil {
		return err
	}

	exact := &flowtable.Table{}
	for _, r := range rules(func(int) uint16 { return 1000 }) {
		if _, err := exact.Insert(r, now); err != nil {
			return err
		}
	}
	frames := make([]packet.Frame, n)
	for i := range frames {
		packet.BuildProbeFrame(&frames[i], packet.ProbeSpec{FlowID: uint32(i)})
	}
	misses := 0
	p.ms.add("flowtable.exact_lookup_ns", "ns", nsPer(n, func() {
		for i := range frames {
			if exact.Lookup(&frames[i], 1) == nil {
				misses++
			}
		}
	}))
	// 64 destination-prefix rules: none is indexable, so every lookup walks
	// the wildcard residue in priority order.
	wild := &flowtable.Table{}
	for i := 0; i < 64; i++ {
		dst := packet.ProbeDstIP(uint32(i) << 8).As4()
		r := &flowtable.Rule{
			Match:    flowtable.Match{Fields: flowtable.FieldNwDst, NwDst: netip.PrefixFrom(netip.AddrFrom4(dst), 24)},
			Priority: uint16(2000 - i), Actions: flowtable.Output(3),
		}
		if _, err := wild.Insert(r, now); err != nil {
			return err
		}
	}
	p.ms.add("flowtable.wild_lookup_ns", "ns", nsPer(n, func() {
		for i := range frames {
			wild.Lookup(&frames[i], 1)
		}
	}))
	del := rules(func(int) uint16 { return 1000 })
	delNS := make([]float64, probeBatches)
	for b := range delNS {
		t := &flowtable.Table{}
		for _, r := range del {
			if _, err := t.Insert(r, now); err != nil {
				return err
			}
		}
		t0 := time.Now()
		for _, r := range del {
			if _, err := t.Delete(&r.Match, r.Priority); err != nil {
				return err
			}
		}
		delNS[b] = float64(time.Since(t0)) / n
	}
	p.ms.add("flowtable.delete_ns", "ns", median(delNS))
	if misses != 0 {
		return fmt.Errorf("%d exact lookups missed an installed rule", misses)
	}
	return err
}

func (p *prober) switchsim() error {
	const n = 1024
	prof := switchsim.TestSwitch(2*n, switchsim.PolicyFIFO)
	sw := switchsim.New(prof, switchsim.WithSeed(p.seed))
	fm := &openflow.FlowMod{Priority: 1000, Actions: flowtable.Output(2)}
	var err error
	mods := func(cmd openflow.FlowModCommand) {
		fm.Command = cmd
		for i := uint32(0); i < n; i++ {
			fm.Match = flowtable.ExactProbeMatch(i)
			if err = sw.FlowMod(fm); err != nil {
				return
			}
		}
	}
	p.ms.add("switchsim.flowmod_ns", "ns", nsPer(2*n, func() { mods(openflow.FlowAdd); mods(openflow.FlowDeleteStrict) }))
	if err != nil {
		return err
	}
	mods(openflow.FlowAdd)
	frames := make([]packet.Frame, 2*n)
	for i := range frames {
		packet.BuildProbeFrame(&frames[i], packet.ProbeSpec{FlowID: uint32(i)})
	}
	wire, err := packet.BuildProbe(packet.ProbeSpec{FlowID: 0})
	if err != nil {
		return err
	}
	wrong := 0
	send := func(fs []packet.Frame, want bool) func() {
		return func() {
			for i := range fs {
				res, e := sw.SendFrameN(&fs[i], 1, len(wire), 1)
				if e != nil {
					err = e
					return
				}
				if (res.Path == switchsim.PathControl) != want {
					wrong++
				}
			}
		}
	}
	p.ms.add("switchsim.probe_hit_ns", "ns", nsPer(n, send(frames[:n], false)))
	p.ms.add("switchsim.probe_miss_ns", "ns", nsPer(n, send(frames[n:], true)))
	po := &openflow.PacketOut{BufferID: 0xffffffff, InPort: 1, Data: wire}
	p.ms.add("switchsim.handle_us", "us", nsPer(n, func() {
		for i := 0; i < n; i++ {
			if len(sw.Handle(po)) == 0 {
				wrong++
			}
		}
	})/1e3)
	if wrong != 0 {
		return fmt.Errorf("%d probes took the wrong path", wrong)
	}
	return err
}

// policies replays one warm segment of the churn trace per cache policy.
func (p *prober) policies() error {
	trace := churnTrace(p.seed, 2*churnSegment)
	frames, size, err := churnFrames()
	if err != nil {
		return err
	}
	var evictions, events uint64
	for _, pol := range churnPolicies() {
		sw, err := churnSwitch(pol.policy, p.seed)
		if err != nil {
			return fmt.Errorf("%s: %w", pol.name, err)
		}
		if _, err := replay(sw, frames, size, trace[:churnSegment]); err != nil {
			return fmt.Errorf("%s: %w", pol.name, err)
		}
		ev0 := sw.Stats().Evictions
		t0 := time.Now()
		hits, err := replay(sw, frames, size, trace[churnSegment:])
		d := time.Since(t0)
		if err != nil {
			return fmt.Errorf("%s: %w", pol.name, err)
		}
		p.ms.add("switchsim.events_per_s."+pol.name, "1/s", churnSegment/d.Seconds())
		p.ms.add("switchsim.tcam_hit_ratio."+pol.name, "ratio", float64(hits)/churnSegment)
		evictions += sw.Stats().Evictions - ev0
		events += churnSegment
	}
	p.ms.add("switchsim.evictions_per_event", "ratio", float64(evictions)/float64(events))
	return nil
}

// probe measures the engine's own cost per call: engine time minus the time
// inside the device it drives.
func (p *prober) probe() error {
	const n = 2048
	tr := newTracer("", 0)
	slot := tr.slot(rootSlot, "device", "switchsim")
	sw := switchsim.New(switchsim.TestSwitch(2*n, switchsim.PolicyFIFO), switchsim.WithSeed(p.seed))
	e := probe.NewEngine(&tracedDevice{SimDevice: probe.SimDevice{S: sw}, tr: tr, slot: slot})
	self := func(f func(id uint32) error) (float64, error) {
		var best []float64
		for b := 0; b < probeBatches; b++ {
			tr.discard()
			t0 := time.Now()
			for id := uint32(0); id < n; id++ {
				if err := f(id); err != nil {
					return 0, err
				}
			}
			total := time.Since(t0)
			best = append(best, float64(int64(total)-tr.acc[slot].busy.Load())/n)
		}
		return median(best), nil
	}
	install, err := self(func(id uint32) error { return e.Install(id, 1000) })
	if err != nil {
		return err
	}
	probeNS, err := self(func(id uint32) error { _, _, err := e.Probe(id); return err })
	if err != nil {
		return err
	}
	p.ms.add("probe.install_self_ns", "ns", install)
	p.ms.add("probe.probe_self_ns", "ns", probeNS)
	return nil
}

func (p *prober) ofconn() error {
	const (
		rules  = 256
		batch  = 1024
		probes = 20000
		rounds = 2000
	)
	t, err := serveSwitch(newChannelSwitch(p.seed))
	if err != nil {
		return err
	}
	defer t.close()

	var dials []float64
	for i := 0; i < probeBatches; i++ {
		t0 := time.Now()
		if err := t.connect(ofconn.ControllerOptions{}); err != nil {
			return err
		}
		dials = append(dials, time.Since(t0).Seconds()*1e3)
	}
	p.ms.add("ofconn.dial_handshake_ms", "ms", median(dials))

	c := t.ctrl
	us := func(n int, f func(i int) error) (float64, error) {
		xs := make([]float64, n)
		for i := range xs {
			t0 := time.Now()
			if err := f(i); err != nil {
				return 0, err
			}
			xs[i] = float64(time.Since(t0)) / 1e3
		}
		return median(xs), nil
	}
	v, err := us(rounds, func(int) error { _, err := c.Echo(); return err })
	if err != nil {
		return err
	}
	p.ms.add("ofconn.echo_us_p50", "us", v)
	if v, err = us(rounds, func(int) error { return c.FlowMods(nil) }); err != nil {
		return err
	}
	p.ms.add("ofconn.barrier_us_p50", "us", v)
	fm := &openflow.FlowMod{Command: openflow.FlowAdd, Priority: 1000, Actions: flowtable.Output(2)}
	if v, err = us(batch, func(i int) error {
		fm.Match = flowtable.ExactProbeMatch(uint32(i))
		return c.FlowMod(fm)
	}); err != nil {
		return err
	}
	p.ms.add("ofconn.sync_flowmod_us_p50", "us", v)
	e := probe.NewEngine(c)
	e.ClearBatch(0, batch, 1000)

	// Pipelined flow-mods at three in-flight windows: install and clear a
	// 1024-rule batch, flow-mods per second of the pair.
	for _, win := range []int{1, 8, 64} {
		if err := t.connect(ofconn.ControllerOptions{AsyncWindow: win}); err != nil {
			return err
		}
		e := probe.NewEngine(t.ctrl)
		ids := make([]uint32, batch)
		for i := range ids {
			ids[i] = uint32(i)
		}
		var rates []float64
		var writes, bytes int64
		for r := 0; r < 3; r++ {
			w0, b0 := t.conn.writes.Load(), t.conn.written.Load()
			t0 := time.Now()
			n, err := e.InstallBatch(ids, 1000)
			if err != nil || n != batch {
				return fmt.Errorf("window %d: %d of %d installs confirmed: %v", win, n, batch, err)
			}
			writes, bytes = t.conn.writes.Load()-w0, t.conn.written.Load()-b0
			e.ClearBatch(0, batch, 1000)
			rates = append(rates, 2*batch/time.Since(t0).Seconds())
		}
		p.ms.add(fmt.Sprintf("ofconn.async_flowmods_per_s.w%d", win), "1/s", median(rates))
		if win == 64 {
			p.ms.add("ofconn.writes_per_flowmod", "ratio", float64(writes)/batch)
			p.ms.add("ofconn.wire_bytes_per_flowmod", "B", float64(bytes)/batch)
		}
	}

	// Serial probe round trips against installed rules, on the default
	// controller.
	if err := t.connect(ofconn.ControllerOptions{}); err != nil {
		return err
	}
	e = probe.NewEngine(t.ctrl)
	ids := make([]uint32, rules)
	for i := range ids {
		ids[i] = uint32(i)
	}
	if n, err := e.InstallBatch(ids, 1000); err != nil || n != rules {
		return fmt.Errorf("%d of %d installs confirmed: %v", n, rules, err)
	}
	rtts := make([]float64, probes)
	rng := rand.New(rand.NewSource(p.seed))
	for i := range rtts {
		rtt, punted, err := e.Probe(ids[rng.Intn(rules)])
		if err != nil || punted {
			return fmt.Errorf("probe %d: punted %v, %v", i, punted, err)
		}
		rtts[i] = float64(rtt) / 1e3
	}
	e.ClearBatch(0, rules, 1000)
	p50 := median(rtts)
	p.ms.add("ofconn.probe_rtt_us_p50", "us", p50)
	for _, q := range []struct {
		name string
		p    float64
	}{{"p95", 95}, {"p99", 99}, {"p999", 99.9}} {
		v, _, err := percentile(rtts, q.p)
		if err != nil {
			return err
		}
		p.ms.add("ofconn.probe_rtt_us_"+q.name, "us", v)
	}
	// What the channel itself adds to a probe: the round trip minus the
	// codec work on both sides (PACKET_OUT there, PACKET_IN back) and the
	// switch's in-process handling, frame decode included.
	codec := (p.ms["openflow.packetout_roundtrip_ns"].Value + p.ms["openflow.packetin_roundtrip_ns"].Value) / 1e3
	p.ms.add("ofconn.channel_self_us", "us", p50-codec-p.ms["switchsim.handle_us"].Value)
	return nil
}

// infer runs one traced pass of the infer_sim catalog (after its reference
// pass) and reports the four phases, the share of them spent outside the
// device, and the catalog's quality figures.
func (p *prober) infer() error {
	tr := newTracer("", 0)
	w := &inferSim{}
	if err := w.setup(p.seed, &meter{}, tr); err != nil {
		return err
	}
	for i := 0; i < w.cycle(); i++ {
		if _, err := w.op(i); err != nil {
			return err
		}
	}
	n := float64(w.inspects)
	var phases, device int64
	for id, s := range tr.slots {
		busy := tr.acc[id].busy.Load()
		switch {
		case s.layer == "infer":
			phases += busy
			p.ms.add("infer."+s.name+"_ms", "ms", float64(busy)/1e6/n)
		case s.layer == "switchsim":
			device += busy
		}
	}
	p.ms.add("infer.self_share", "ratio", float64(phases-device)/float64(phases))
	p.ms.add("infer.size_err_pct_max", "%", 100*w.worstSizeErr)
	p.ms.add("infer.policy_exact_ratio", "ratio", float64(w.policyExact)/float64(w.policyChecks))
	p.ms.add("infer.probe_virtual_s_per_switch", "s", w.virtualSum.Seconds()/n)
	p.ms.add("probe.flowmods_per_inspect", "count", float64(w.flowMods)/n)
	p.ms.add("probe.probes_per_inspect", "count", float64(w.packets)/n)
	return nil
}

// inferTCP runs Algorithm 1 over the socket. Loopback round trips do not
// cluster into tiers (DESIGN §10.4), so the error is large; it is recorded
// so the change that fixes it has a before-number.
func (p *prober) inferTCP() error {
	const cache = 128
	prof := switchsim.TestSwitch(cache, switchsim.PolicyLRU)
	prof.SoftwareCapacity = 3 * cache
	sw := switchsim.New(prof, switchsim.WithClock(&simclock.Real{Scale: channelScale}), switchsim.WithSeed(p.seed))
	t, err := dialSwitch(sw, ofconn.ControllerOptions{Timeout: 5 * time.Second})
	if err != nil {
		return err
	}
	defer t.close()
	res, err := infer.ProbeSizes(probe.NewEngine(t.ctrl), infer.SizeOptions{Seed: p.seed, MaxRules: 8 * cache})
	if err != nil {
		return err
	}
	p.ms.add("infer.size_tcp_err_pct", "%", 100*relErr(res.Levels[0].Size, cache))
	return nil
}

func (p *prober) math() error {
	rng := rand.New(rand.NewSource(p.seed))
	rtts := make([]float64, 4096)
	for i := range rtts {
		tier := []float64{0.4e6, 3e6, 8e6}[i%3]
		rtts[i] = tier * (1 + 0.05*rng.NormFloat64())
	}
	var err error
	var tiers int
	p.ms.add("cluster.find_us", "us", nsPer(1, func() {
		var res cluster.Result
		if res, err = cluster.Find(rtts, cluster.Options{}); err == nil {
			tiers = len(res.Clusters)
		}
	})/1e3)
	if err != nil {
		return err
	}
	if tiers != 3 {
		return fmt.Errorf("cluster.Find saw %d tiers in three-tier samples", tiers)
	}
	trials := make([]int, 256)
	for i := range trials {
		trials[i] = rng.Intn(12)
	}
	const reps = 1000
	p.ms.add("stats.negbinomial_mle_ns", "ns", nsPer(reps, func() {
		for i := 0; i < reps; i++ {
			if _, err = stats.NegBinomialMLE(trials); err != nil {
				return
			}
		}
	}))
	xs, ys := make([]float64, 2048), make([]float64, 2048)
	for i := range xs {
		xs[i] = rng.Float64()
		ys[i] = xs[i] + 0.3*rng.Float64()
	}
	p.ms.add("stats.spearman_us", "us", nsPer(1, func() { _, err = stats.Spearman(xs, ys) })/1e3)
	return err
}

// sched runs a few traced sched_plan ops and one update_b4 cycle.
func (p *prober) sched() error {
	const runs = 5
	tr := newTracer("sched", 0)
	w := &schedPlan{}
	if err := w.setup(p.seed, &meter{}, tr); err != nil {
		return err
	}
	p.ms.add("sched.dionysus_over_tango", "ratio", w.q.dioRatio/float64(w.q.dioRuns))
	var run time.Duration
	for i := 0; i < runs; i++ {
		if _, err := w.op(i); err != nil {
			return err
		}
		run += w.m.lastDur
	}
	order := tr.acc[tr.slot(rootSlot, "order", "sched.order")].busy.Load()
	exec := tr.acc[tr.slot(rootSlot, "execute", "pattern")].busy.Load()
	perRun := func(ns int64) float64 { return float64(ns) / 1e6 / runs }
	p.ms.add("sched.order_ms_per_run", "ms", perRun(order))
	p.ms.add("sched.exec_ms_per_run", "ms", perRun(exec))
	// With two workers ordering and executing at once, their busy time can
	// exceed the run's wall time; the run's own share is then hidden.
	self := perRun(int64(run) - order - exec)
	if self < 0 {
		self = 0
	}
	p.ms.add("sched.self_ms_per_run", "ms", self)
	p.ms.add("sched.rounds_per_run", "count", float64(w.q.rounds)/float64(w.q.runs))
	p.ms.add("sched.makespan_virtual_s", "s", w.q.makespan.Seconds()/float64(w.q.runs))

	// One switch's worth of a big mixed round: the inner loop of every
	// scheduling figure.
	g, db := experiments.SchedWorkload(1, 512, 1, p.seed)
	reqs := make([]*sched.Request, 0, 512)
	for _, id := range g.Nodes() {
		reqs = append(reqs, g.Payload(id))
	}
	tg := &sched.Tango{DB: db, SortPriorities: true}
	dropped := false
	p.ms.add("sched.tango_order_us", "us", nsPer(1, func() {
		if len(tg.Order("bench-00", reqs, nil, nil)) != len(reqs) {
			dropped = true
		}
	})/1e3)
	if dropped {
		return fmt.Errorf("Tango.Order dropped requests")
	}

	u := &updateB4{}
	if err := u.setup(p.seed, &meter{}, nil); err != nil {
		return err
	}
	for i := 0; i < u.cycle(); i++ {
		if _, err := u.op(i); err != nil {
			return err
		}
	}
	p.ms.add("sched.update_makespan_virtual_s", "s", u.q.makespan.Seconds()/float64(u.q.runs))
	p.ms.add("sched.update_dionysus_over_tango", "ratio", u.q.dioRatio/float64(u.q.dioRuns))
	return nil
}

// dag builds and drains a graph of the sched_plan shape: 40 levels of 160
// nodes, one or two parents each.
func (p *prober) dag() error {
	const levels, width = planLevels, planRequests / planLevels
	rng := rand.New(rand.NewSource(p.seed))
	type edge struct{ from, to int }
	var edges []edge
	for l := 1; l < levels; l++ {
		for i := 0; i < width; i++ {
			for k := 0; k < 1+rng.Intn(2); k++ {
				edges = append(edges, edge{(l-1)*width + rng.Intn(width), l*width + i})
			}
		}
	}
	var g *dag.Graph[int]
	var err error
	build := func() {
		g = dag.New[int]()
		for i := 0; i < levels*width; i++ {
			g.AddNode(i)
		}
		for _, e := range edges {
			// A repeated parent is a duplicate edge, not a cycle.
			_ = g.AddEdge(dag.NodeID(e.from), dag.NodeID(e.to))
		}
	}
	p.ms.add("dag.build_ns_per_edge", "ns", nsPer(len(edges), build))
	drainNS := make([]float64, probeBatches)
	for b := range drainNS {
		build()
		t0 := time.Now()
		for f := g.Frontier(); len(f) > 0; f = g.Frontier() {
			if _, err = g.RemoveBatch(f); err != nil {
				return err
			}
		}
		drainNS[b] = float64(time.Since(t0)) / float64(levels*width)
		if g.Len() != 0 {
			return fmt.Errorf("%d nodes left after the drain", g.Len())
		}
	}
	p.ms.add("dag.frontier_ns_per_node", "ns", median(drainNS))
	return nil
}

// fleet runs the simulated part of fleet_mixed alone, at one and two
// workers.
func (p *prober) fleet() error {
	const runs = 3
	rate := func(workers int) (perS, roundMS float64, err error) {
		var rates, rounds []float64
		for i := 0; i < runs; i++ {
			r, err := fleet.Run(fleet.Options{Switches: fleetSims, Rounds: fleetRounds, Workers: workers, Seed: p.seed})
			if err != nil {
				return 0, 0, err
			}
			if r.InferErrs != 0 {
				return 0, 0, fmt.Errorf("%d inferences failed", r.InferErrs)
			}
			rates = append(rates, r.SwitchesPerSec)
			rounds = append(rounds, r.Wall.Seconds()*1e3/fleetRounds)
		}
		return median(rates), median(rounds), nil
	}
	one, _, err := rate(1)
	if err != nil {
		return err
	}
	two, roundMS, err := rate(genWorkers())
	if err != nil {
		return err
	}
	p.ms.add("fleet.sim_only_switches_per_s", "1/s", two)
	p.ms.add("fleet.round_ms_p50", "ms", roundMS)
	p.ms.add("fleet.worker_scaling", "ratio", two/one)
	return nil
}

// telemetry measures the observer effect: the generated part of the
// inference catalog with a registry, a tracer and a flight recorder
// installed as process defaults, against the same pass bare.
func (p *prober) telemetry() error {
	w := &inferSim{seed: p.seed, items: inferCatalog()[4:]}
	pass := func() (float64, error) {
		t0 := time.Now()
		for i := range w.items {
			if _, err := tango.Inspect(probe.SimDevice{S: w.newSwitch(i)}, w.options(i)); err != nil {
				return 0, err
			}
		}
		return time.Since(t0).Seconds(), nil
	}
	reg := telemetry.NewRegistry()
	var bare, observed []float64
	for i := 0; i < 2*3+2; i++ {
		on := i%2 == 1
		if on {
			telemetry.SetDefault(reg, telemetry.NewTracer(nil))
			telemetry.SetDefaultFlight(telemetry.NewFlightRecorder(1024))
		}
		s, err := pass()
		telemetry.SetDefault(nil, nil)
		telemetry.SetDefaultFlight(nil)
		if err != nil {
			return err
		}
		switch {
		case i < 2: // one warm-up pass each
		case on:
			observed = append(observed, s)
		default:
			bare = append(bare, s)
		}
	}
	p.ms.add("telemetry.observer_ratio", "ratio", median(observed)/median(bare))
	p.ms.add("probe.retries", "count", float64(reg.Counter("probe.retries").Value()))

	cv := reg.CounterVec("bench.ops", "switch")
	hv := reg.HistogramVec("bench.rtt_ns", "switch")
	c, h, track := cv.With("sw1"), hv.With("sw1"), telemetry.NewFlightRecorder(1024).Track("sw1")
	now := time.Now()
	const n = 100000
	p.ms.add("telemetry.vec_record_ns", "ns", nsPer(n, func() {
		for i := 0; i < n; i++ {
			c.Add(1)
			h.Observe(float64(i))
			track.Record(now, now, time.Duration(i), uint32(i), false)
		}
	}))
	return nil
}

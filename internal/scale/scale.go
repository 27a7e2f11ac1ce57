// Package scale is the sharded discrete-event core: it drives all twelve
// B4 sites as concurrently emulated switches — each site's switchsim.Switch
// on a shard goroutine with a shard-local virtual clock — at million-flow
// residency, with live timeout churn and property inference running against
// the same tables.
//
// Determinism contract (the one DESIGN.md documents and the differential
// test enforces): within an epoch, every event a shard processes is a
// function of per-site state only — the site's switch, clock, RNG, churn
// driver, and flight track. Cross-site interaction happens exclusively on
// the harness goroutine between phases, once parallel.ForEach has returned, when
// simclock.Group.Align advances every shard-local clock to the fleet
// frontier. Control-plane interactions (FlowMod storms from TE diffs and
// link failures, probe measurements, inference rounds) therefore rendezvous
// at epoch barriers, and every emulated RTT and expiry deadline is
// bit-identical whether the sites run on 1 goroutine or 12.
package scale

import (
	"math/rand"
	"sort"
	"time"

	"tango/internal/conformance"
	"tango/internal/core/infer"
	"tango/internal/core/probe"
	"tango/internal/flowtable"
	"tango/internal/openflow"
	"tango/internal/packet"
	"tango/internal/parallel"
	"tango/internal/simclock"
	"tango/internal/switchsim"
	"tango/internal/telemetry"
	"tango/internal/topo"
	"tango/internal/workload"
)

// Options configures a scale-harness run. The zero value is the B4-wide
// million-flow benchmark configuration.
type Options struct {
	// Flows is the fleet-wide resident-rule target (default 1<<20). The
	// layout places flows on ordered site pairs; each flow installs one
	// rule per on-path switch except the destination.
	Flows int
	// Shards is the number of shard goroutines sites are distributed over
	// (default: one per site). Shards=1 is the serial reference run the
	// differential test compares against.
	Shards int
	// Epochs is the number of simulation epochs (default 12).
	Epochs int
	// EventsPerEpoch is the data-plane sends per site per epoch (default
	// 4096); each send is a 1..burstMax packet burst.
	EventsPerEpoch int
	// ProbesPerEpoch is the RTT measurement probes per site per epoch
	// (default 128), interleaved with the data events.
	ProbesPerEpoch int
	// TEEvery runs a max-min fair re-allocation on epochs where
	// ep%TEEvery == TEEvery-1 (default 4; storm epochs take precedence).
	TEEvery int
	// MaxMoves caps pair migrations per TE round (default 16).
	MaxMoves int
	// FailEpoch is the link-failure storm epoch (default Epochs/2); the
	// link is restored two epochs later. Negative disables the storm.
	FailEpoch int
	// InferMaxRules caps each inference round's probe rules (default 2048).
	InferMaxRules int
	// ChurnRate and ChurnFlows shape the fleet-wide timeout-churn schedule
	// (defaults 10 events per virtual second over 1536 flows, spanning
	// ChurnDuration of virtual time). Negative ChurnRate disables churn.
	ChurnRate     float64
	ChurnFlows    int
	ChurnDuration time.Duration
	// Seed fixes every RNG in the run.
	Seed int64
	// Flight receives per-site probe RTT samples (default: the process
	// flight recorder, if installed). Samples record the virtual instant
	// for both timestamps, keeping exports shard-count invariant.
	Flight *telemetry.FlightRecorder
	// Registry receives the deterministic fleet-level fold (default: the
	// process registry, if installed). Per-site registries are always
	// created internally and snapshotted into Result.Snapshots.
	Registry *telemetry.Registry
}

const (
	// burstMax bounds the per-send burst size.
	burstMax = 4
	// inferEvery: size inference runs on a rotating site on epochs where
	// ep%inferEvery == 1.
	inferEvery = 4
)

func (o Options) withDefaults() Options {
	if o.Flows <= 0 {
		o.Flows = 1 << 20
	}
	if o.Epochs <= 0 {
		o.Epochs = 12
	}
	if o.EventsPerEpoch <= 0 {
		o.EventsPerEpoch = 4096
	}
	if o.ProbesPerEpoch <= 0 {
		o.ProbesPerEpoch = 128
	}
	if o.TEEvery <= 0 {
		o.TEEvery = 4
	}
	if o.MaxMoves <= 0 {
		o.MaxMoves = 16
	}
	if o.FailEpoch == 0 {
		o.FailEpoch = o.Epochs / 2
	}
	if o.InferMaxRules <= 0 {
		o.InferMaxRules = 2048
	}
	if o.ChurnRate == 0 {
		o.ChurnRate = 10
	}
	if o.ChurnFlows <= 0 {
		o.ChurnFlows = 1536
	}
	if o.ChurnDuration <= 0 {
		o.ChurnDuration = 4 * time.Hour
	}
	if o.Flight == nil {
		o.Flight = telemetry.DefaultFlight()
	}
	if o.Registry == nil {
		o.Registry = telemetry.Default()
	}
	return o
}

// SiteStats is one site's end-of-run occupancy and switch counters.
type SiteStats struct {
	Name     string
	TCAM     int
	Software int
	Stats    switchsim.Stats
}

// Result is the harness' outcome. All fields except the wall-time-derived
// trio (SetupWall, EpochWall, EventsPerSec) are deterministic functions of
// Options; Deterministic returns a copy with that trio zeroed, which the
// sharded-vs-serial differential compares with DeepEqual.
type Result struct {
	Sites, Shards, Epochs int

	// FlowsResident is the fleet-wide resident rule count after setup;
	// FlowsDistinct the distinct resident flow IDs backing them;
	// FlowsResidentEnd the rule count at the end of the run (churn,
	// inference transients, and failed moves shift it).
	FlowsResident    int
	FlowsDistinct    int
	FlowsResidentEnd int

	// Events counts discrete events processed during the epoch loop:
	// data-plane packets plus control-plane FlowMods (setup excluded).
	Events       uint64
	RuleOps      uint64
	Expirations  uint64
	TableFull    uint64
	Errs         uint64
	PairMoves    int
	MovesSkipped int

	// Probe measurements, fleet-wide.
	ProbeSamples int
	ProbePunts   uint64
	P50ProbeRTT  time.Duration
	P99ProbeRTT  time.Duration

	// MaxShardLag is the largest clock spread observed at any barrier —
	// how far the fastest site's virtual clock ran ahead within a phase.
	MaxShardLag time.Duration

	// Inference activity (descriptive; accuracy is covered elsewhere).
	InferRuns   int
	InferRules  int
	InferProbes int

	// Churn totals across all per-site drivers.
	ChurnApplied  int
	ChurnInstalls int
	ChurnTouches  int
	ChurnErrs     int

	PerSite []SiteStats
	// Snapshots are the per-site telemetry registries, site order, TakenAt
	// zeroed so they compare shard-count invariant.
	Snapshots []*telemetry.Snapshot

	// Wall-clock measurements; excluded from Deterministic.
	SetupWall    time.Duration
	EpochWall    time.Duration
	EventsPerSec float64
}

// Deterministic returns a copy with the wall-time-derived fields and the
// shard-count configuration echo zeroed; everything remaining must be
// invariant under the shard count.
func (r *Result) Deterministic() *Result {
	c := *r
	c.Shards = 0
	c.SetupWall, c.EpochWall, c.EventsPerSec = 0, 0, 0
	return &c
}

// tally is a site's hot event counters, folded by the harness after the
// run. Layout gated: one lives in every site struct.
type tally struct {
	packets   uint64
	ruleOps   uint64
	tableFull uint64
	errs      uint64
	punted    uint64
}

// site is one B4 site: an emulated switch on its own virtual clock, the
// churn-wrapped device view, a probe engine for inference, and everything
// its shard goroutine touches during a phase. No field is accessed by any
// other goroutine while a phase runs.
type site struct {
	idx      int
	name     string
	sw       *switchsim.Switch
	dev      probe.FrameDevice
	eng      *probe.Engine
	reg      *telemetry.Registry
	track    *telemetry.FlightTrack
	churn    *conformance.ChurnDriver
	rng      *rand.Rand
	frame    packet.Frame // retargeted in place to every data-plane and probe flow
	fm       openflow.FlowMod
	acts     map[uint16][]flowtable.Action
	ports    map[string]uint16
	hostPort uint16

	ing, hot []int32 // ingress pairs (src == this site) and the hot subset
	opsA     []opSpec
	opsB     []opSpec
	rtts     []time.Duration
	tally    tally

	inferRuns, inferRules, inferProbes int
}

// harness wires sites, shards, and clocks together for one run.
type harness struct {
	o       Options
	g       *topo.Graph
	names   []string
	siteIdx map[string]int
	sites   []*site
	group   *simclock.Group
	rng     *rand.Rand

	pairs    []pairInfo
	counts   []int32
	siteLoad []int
	saved    map[int32][]string

	probeStride int
	inferEpoch  bool
	inferSite   int
	inferBase   uint32
	inferRun    int

	res *Result
}

// scaleProfile is the per-site switch model: Switch#1's policy-cache
// hierarchy and latency calibration with the software table widened to the
// emulator's "virtually unlimited" bound, named after the site so telemetry
// labels distinguish sites.
func scaleProfile(name string) switchsim.Profile {
	p := switchsim.Switch1()
	p.Name = name
	p.SoftwareCapacity = 1 << 17
	return p
}

// Run executes the scenario described by o and returns the folded result.
func Run(o Options) (*Result, error) {
	o = o.withDefaults()
	h := &harness{o: o, res: &Result{}, saved: map[int32][]string{}}
	h.rng = rand.New(rand.NewSource(o.Seed))

	setupStart := time.Now()
	h.build()
	h.layout(h.o.Flows)
	h.buildIngress()
	h.installPlan()
	h.runPhase(func(st *site) { st.execOps(h, &st.opsA) })
	h.res.SetupWall = time.Since(setupStart)
	for i := range h.pairs {
		h.res.FlowsDistinct += int(h.counts[i])
	}
	for _, st := range h.sites {
		tcam, _, soft := st.sw.RuleCount()
		h.res.FlowsResident += tcam + soft
	}

	base := make([]switchsim.Stats, len(h.sites))
	for i, st := range h.sites {
		base[i] = st.sw.Stats()
	}

	epochStart := time.Now()
	for ep := 0; ep < h.o.Epochs; ep++ {
		h.plan(ep)
		if h.havePlanned() {
			h.runPhase(func(st *site) { st.execOps(h, &st.opsA) })
			h.runPhase(func(st *site) { st.execOps(h, &st.opsB) })
		}
		h.runPhase(func(st *site) { st.runData(h) })
		h.inferEpoch = false
	}
	h.res.EpochWall = time.Since(epochStart)

	h.fold(base)
	return h.res, nil
}

// build constructs the topology, sites, clocks, and churn drivers.
func (h *harness) build() {
	h.g = topo.B4()
	h.names = append([]string(nil), h.g.Nodes()...)
	h.siteIdx = make(map[string]int, len(h.names))
	for i, n := range h.names {
		h.siteIdx[n] = i
	}
	if h.o.Shards <= 0 || h.o.Shards > len(h.names) {
		h.o.Shards = len(h.names)
	}
	h.res.Sites, h.res.Shards, h.res.Epochs = len(h.names), h.o.Shards, h.o.Epochs
	h.probeStride = max(1, h.o.EventsPerEpoch/h.o.ProbesPerEpoch)

	h.group = simclock.NewGroup(len(h.names))

	// One fleet-wide churn schedule, partitioned flow-disjoint per site so
	// every shard steps its own stateful driver.
	var schedules [][]workload.ChurnEvent
	if h.o.ChurnRate > 0 {
		events := workload.Churn(workload.ChurnOptions{
			FlowBase: churnFlowBase,
			Flows:    h.o.ChurnFlows,
			Rate:     h.o.ChurnRate,
			Duration: h.o.ChurnDuration,
			Seed:     h.o.Seed*31 + 7,
		})
		schedules = conformance.ShardSchedule(events, len(h.names))
	}

	h.sites = make([]*site, len(h.names))
	for i, name := range h.names {
		reg := telemetry.NewRegistry()
		sw := switchsim.New(scaleProfile(name),
			switchsim.WithClock(h.group.Clock(i)),
			switchsim.WithSeed(h.o.Seed+int64(i)),
			switchsim.WithTelemetry(reg, nil),
		)
		st := &site{
			idx:   i,
			name:  name,
			sw:    sw,
			reg:   reg,
			rng:   rand.New(rand.NewSource(h.o.Seed*131 + int64(i))),
			ports: map[string]uint16{},
			acts:  map[uint16][]flowtable.Action{},
		}
		packet.BuildProbeFrame(&st.frame, packet.ProbeSpec{})
		for pi, nb := range h.g.Neighbors(name) {
			st.ports[nb] = uint16(pi + 1)
		}
		st.hostPort = uint16(len(st.ports) + 1)
		for _, p := range st.ports {
			st.acts[p] = flowtable.Output(p)
		}
		if len(schedules) > 0 {
			if st.churn = conformance.NewChurnDriver(schedules[i]); st.churn != nil {
				st.churn.Priority = rulePriority
			}
		}
		st.dev = conformance.WrapBackground(probe.SimDevice{S: sw}, st.churn)
		st.eng = probe.NewEngine(st.dev)
		st.eng.SetTelemetry(reg, nil)
		// The engine's flight track timestamps with wall clocks; the
		// harness records its own samples at virtual instants instead, so
		// flight exports stay shard-count invariant.
		st.eng.SetFlight(nil)
		if h.o.Flight != nil {
			st.track = h.o.Flight.Track(name)
		}
		h.sites[i] = st
	}
	h.buildPairs()
}

// buildIngress resolves each site's ingress pair list (pairs it originates)
// and the 20% hot subset its traffic draw favours. Must run after layout.
func (h *harness) buildIngress() {
	for p, pi := range h.pairs {
		if h.counts[p] > 0 {
			st := h.sites[pi.src]
			st.ing = append(st.ing, int32(p))
		}
	}
	for _, st := range h.sites {
		if n := len(st.ing); n > 0 {
			st.hot = st.ing[:max(1, n/5)]
		}
	}
}

// runPhase executes fn once per site on Shards goroutines, then measures
// clock spread and aligns every site clock to the frontier. ForEach returns
// only once every shard has parked, so the harness never touches site state
// or a clock while a shard is running.
func (h *harness) runPhase(fn func(*site)) {
	parallel.ForEach(len(h.sites), h.o.Shards, func(i int) { fn(h.sites[i]) })
	if lag := h.group.Lag(); lag > h.res.MaxShardLag {
		h.res.MaxShardLag = lag
	}
	h.group.Align()
}

// plan computes this epoch's control-plane op lists on the harness
// goroutine. Storm epochs take precedence over TE rounds.
func (h *harness) plan(ep int) {
	switch {
	case h.o.FailEpoch >= 0 && ep == h.o.FailEpoch:
		h.planFail()
	case h.o.FailEpoch >= 0 && ep == h.o.FailEpoch+2:
		h.planRestore()
	case ep%h.o.TEEvery == h.o.TEEvery-1:
		h.planTE()
	}
	if ep%inferEvery == 1 {
		h.inferEpoch = true
		h.inferSite = h.inferRun % len(h.sites)
		h.inferBase = inferFlowBase + uint32(h.inferRun)*flowStride
		h.inferRun++
	}
}

func (h *harness) havePlanned() bool {
	for _, st := range h.sites {
		if len(st.opsA) > 0 || len(st.opsB) > 0 {
			return true
		}
	}
	return false
}

// execOps expands the site's pending pair-granular ops into per-flow
// FlowMods against the churn-wrapped device and clears the list.
func (st *site) execOps(h *harness, ops *[]opSpec) {
	for _, op := range *ops {
		base, n := flowBase(int(op.pair)), h.counts[op.pair]
		for f := base; f < base+uint32(n); f++ {
			st.fm = openflow.FlowMod{
				Match:    flowtable.ExactProbeMatch(f),
				Priority: rulePriority,
			}
			switch op.kind {
			case opAdd:
				st.fm.Command = openflow.FlowAdd
				st.fm.Actions = st.acts[op.port]
			case opMod:
				st.fm.Command = openflow.FlowModifyStrict
				st.fm.Actions = st.acts[op.port]
			case opDel:
				st.fm.Command = openflow.FlowDeleteStrict
			}
			err := st.dev.FlowMod(&st.fm)
			st.tally.ruleOps++
			switch err {
			case nil:
			case switchsim.ErrTableFull:
				st.tally.tableFull++
			default:
				st.tally.errs++
			}
		}
	}
	*ops = (*ops)[:0]
}

// runData processes one epoch of data-plane events for the site: bursty
// sends over its ingress pairs (80% from the hot subset), RTT probes every
// probeStride-th event, and — on inference epochs, for the rotating site —
// a full size-inference round against the live tables.
func (st *site) runData(h *harness) {
	if len(st.ing) > 0 {
		for j := 0; j < h.o.EventsPerEpoch; j++ {
			p := st.ing[st.rng.Intn(len(st.ing))]
			if st.rng.Float64() < 0.8 {
				p = st.hot[st.rng.Intn(len(st.hot))]
			}
			f := flowBase(int(p)) + uint32(st.rng.Intn(int(h.counts[p])))
			packet.RetargetProbeFrame(&st.frame, f)
			burst := 1 + st.rng.Intn(burstMax)
			if _, _, err := st.dev.SendFrameN(&st.frame, st.hostPort, packet.ProbeFrameLen, burst); err != nil {
				st.tally.errs++
				continue
			}
			st.tally.packets += uint64(burst)
			if j%h.probeStride == 0 {
				rtt, punted, err := st.dev.SendFrameN(&st.frame, st.hostPort, packet.ProbeFrameLen, 1)
				if err != nil {
					st.tally.errs++
					continue
				}
				st.tally.packets++
				now := st.sw.Now()
				st.track.Record(now, now, rtt, f, punted)
				st.rtts = append(st.rtts, rtt)
				if punted {
					st.tally.punted++
				}
			}
		}
	}
	if h.inferEpoch && h.inferSite == st.idx {
		st.runInfer(h)
	}
}

// runInfer runs one size-inference round against the site's live tables;
// the pipeline clears its probe rules so residency returns to baseline.
func (st *site) runInfer(h *harness) {
	m, err := infer.Inspect(st.eng, infer.InspectOptions{
		Size: infer.SizeOptions{
			Priority:   rulePriority,
			MaxRules:   h.o.InferMaxRules,
			Trials:     2,
			Seed:       h.o.Seed*1000 + int64(st.idx),
			FlowIDBase: h.inferBase,
		},
		Skip: infer.PhaseAll,
	})
	if err != nil {
		st.tally.errs++
		return
	}
	st.inferRuns++
	st.inferRules += m.Sizes.RulesInstalled
	st.inferProbes += m.Sizes.ProbesSent
}

// fold aggregates per-site state into the Result on the harness goroutine,
// always in site order so the fold itself is deterministic, and publishes
// the fleet-level metrics to the configured registry.
func (h *harness) fold(base []switchsim.Stats) {
	r := h.res
	var all []time.Duration
	for i, st := range h.sites {
		stats := st.sw.Stats()
		tcam, _, soft := st.sw.RuleCount()
		r.PerSite = append(r.PerSite, SiteStats{Name: st.name, TCAM: tcam, Software: soft, Stats: stats})
		r.FlowsResidentEnd += tcam + soft
		r.Events += stats.PacketsSeen - base[i].PacketsSeen + stats.FlowMods - base[i].FlowMods
		r.RuleOps += stats.FlowMods - base[i].FlowMods
		r.Expirations += stats.Expirations - base[i].Expirations
		r.TableFull += st.tally.tableFull
		r.Errs += st.tally.errs
		r.ProbePunts += st.tally.punted
		r.ProbeSamples += len(st.rtts)
		all = append(all, st.rtts...)
		r.InferRuns += st.inferRuns
		r.InferRules += st.inferRules
		r.InferProbes += st.inferProbes
		if st.churn != nil {
			r.ChurnApplied += st.churn.Applied()
			r.ChurnInstalls += st.churn.Installs()
			r.ChurnTouches += st.churn.Touches()
			r.ChurnErrs += st.churn.Errs()
		}
		snap := st.reg.Snapshot()
		snap.TakenAt = time.Time{}
		r.Snapshots = append(r.Snapshots, snap)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	if n := len(all); n > 0 {
		r.P50ProbeRTT = all[n/2]
		r.P99ProbeRTT = all[min(n-1, n*99/100)]
	}
	if r.EpochWall > 0 {
		r.EventsPerSec = float64(r.Events) / r.EpochWall.Seconds()
	}

	reg := h.o.Registry
	reg.Counter("scale.events").Add(int64(r.Events))
	reg.Counter("scale.rule_ops").Add(int64(r.RuleOps))
	reg.Counter("scale.expirations").Add(int64(r.Expirations))
	reg.Counter("scale.table_full").Add(int64(r.TableFull))
	reg.Counter("scale.probe_samples").Add(int64(r.ProbeSamples))
	reg.Gauge("scale.flows_resident").Set(int64(r.FlowsResidentEnd))
	hist := reg.Histogram("scale.probe_rtt_ns")
	for _, d := range all {
		hist.Observe(float64(d))
	}
}

// Package fleet is the continuous-inference controller service: it holds a
// large mixed fleet of switches — in-process switchsim members on virtual
// clocks and real-TCP members, each a connected ofconn.Controller — and
// continuously probes, infers, and re-infers their properties, round after
// round, the in-deployment regime of §5–6 of the Tango paper rather than a
// one-off lab run.
//
// # Architecture
//
// Per-switch state (the probing engine, last inference, probe budget, RTT
// samples) lives in one member struct, and within a round exactly one
// worker — whichever claimed the member from parallel.ForEach — touches it,
// so the hot path takes no global lock, and cross-member aggregation happens
// only in the fold, on the caller's goroutine, in member order. Every op a
// member sends is serial and confirmed: simulated members install, probe and
// clear one op at a time on their SimDevice, and TCP members run only the
// cost fit, whose flow-mods each wait for their barrier. Measurement probes
// must stay serial (a queued probe would fold queueing delay into the RTT
// that clustering reads); concurrency comes from multiplexing many
// switches' serial schedules across the workers.
//
// # Pacing
//
// Each member carries a token-bucket probe budget (Options.ProbeRate):
// rounds are admitted only while the bucket is solvent and are charged
// their actual probe count afterwards, so a switch that overdraws simply
// waits for refill instead of collapsing its neighbours' tail latency. A
// global in-flight cap (Options.MaxInflight) bounds how many members may be
// mid-round at once. Neither affects inference *results* — sim members run
// on virtual clocks — only wall-clock scheduling.
//
// # Determinism
//
// For simulation-only fleets every inference outcome is a function of
// (Options.Seed, member index, round) — never of the worker count or
// wall-clock interleaving — so Result.Deterministic() is byte-identical at
// 1 worker and N workers. TestFleetShardedDifferential enforces this.
package fleet

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"tango/internal/conformance"
	"tango/internal/core/infer"
	"tango/internal/core/pattern"
	"tango/internal/core/probe"
	"tango/internal/parallel"
	"tango/internal/simclock"
	"tango/internal/switchsim"
	"tango/internal/telemetry"
)

// Flow-ID regions keep the service's probe traffic disjoint: size probing
// sweeps upward from sizeFlowBase with a fresh per-round block, cost
// fitting uses MeasureCosts' own default block (3<<20), and the sentinel
// RTT probe sits far above both.
const (
	probePriority        = 1000
	sizeFlowBase  uint32 = 1 << 16
	sentinelBase  uint32 = 1 << 30

	// sizeTrials fixes the sampling trials per cache level at two instead of
	// the adaptive default: a member re-infers every round, so a round's
	// budget is kept small.
	sizeTrials = 2
	// costEvery: simulated members fit control-channel costs every
	// costEvery-th round. TCP members fit every round — it is their
	// inference workload.
	costEvery = 2
	// costSamples is MeasureCosts' per-class op budget.
	costSamples = 32
	// sentinelProbes is the per-round count of serial RTT measurement probes
	// against a sentinel rule; their RTTs feed the fleet's p50/p99 and the
	// flight tracks.
	sentinelProbes = 8
)

// Options configures a fleet run. The zero value is a small all-simulation
// fleet suitable for tests.
type Options struct {
	// Switches is the number of in-process simulated members (default 64).
	// Their profiles are drawn by conformance.GenerateSpecs(Switches, Seed),
	// so the fleet mixes policy-cache and TCAM-only hierarchies.
	Switches int
	// Workers is the shard worker-pool size (default GOMAXPROCS, capped at
	// the member count). Workers=1 is the serial reference the differential
	// test compares against.
	Workers int
	// Rounds is how many inference rounds Run executes per member (default
	// 2). The Service ignores it and loops until stopped.
	Rounds int
	// Seed fixes every RNG: member profiles, switch latency draws, and the
	// per-(member, round) inference seeds.
	Seed int64
	// MaxRules caps each size-inference round's probe rules (default 1024 —
	// the generated profiles' bounded tables reject well before that).
	MaxRules int
	// ProbeRate is each member's probe budget in probes/sec; 0 disables
	// pacing (and keeps wall time deterministic-friendly). The bucket holds
	// one round's worth, 4*MaxRules.
	ProbeRate float64
	// MaxInflight bounds how many members may be mid-round at once across
	// all workers; 0 means no bound.
	MaxInflight int
	// TCP contributes real-TCP members, in order, after the simulated ones.
	// The caller keeps ownership of their connections (see SpawnSimTCP for
	// in-process servers).
	TCP []TCPMember
	// Registry receives the fleet-level fold (default: the process
	// registry); per-member engines always record into private registries
	// so the fold stays deterministic.
	Registry *telemetry.Registry
	// Flight receives per-switch sentinel RTT samples (default: the
	// process flight recorder, if installed).
	Flight *telemetry.FlightRecorder

	// Test hooks for the pacing layer; nil means real time.
	now   func() time.Time
	sleep func(time.Duration)
}

func (o Options) withDefaults() Options {
	if o.Switches == 0 && len(o.TCP) == 0 {
		o.Switches = 64
	}
	if o.Rounds <= 0 {
		o.Rounds = 2
	}
	if o.MaxRules <= 0 {
		o.MaxRules = 1024
	}
	if o.Registry == nil {
		o.Registry = telemetry.Default()
	}
	if o.Flight == nil {
		o.Flight = telemetry.DefaultFlight()
	}
	return o
}

// SwitchSummary is one member's end-of-run ledger. Every field is a
// deterministic function of (Options, member) for simulated members.
type SwitchSummary struct {
	Name string
	// TCP marks real-TCP members (cost-fitting workload, wall-clock RTTs).
	TCP bool
	// Rounds completed, Inferences that succeeded, Errs the failed steps
	// (an inference, the sentinel install, a sentinel probe).
	Rounds     int
	Inferences int
	Errs       int
	// LastErr is the text of the member's most recent failed step, "" if
	// none failed.
	LastErr string
	// Levels and CacheSize echo the last successful size inference
	// (simulated members only).
	Levels    int
	CacheSize int
	// ScoreCards counts cost-fitting rounds that produced a card.
	ScoreCards int
	// Op totals from the engine's ledger.
	FlowMods int64
	Probes   int64
	Punted   int64
}

// Result is a fleet run's folded outcome. The wall-derived fields (Wall,
// SwitchesPerSec, FlowModsPerSec, ThrottleWait) and the Workers echo are
// zeroed by Deterministic; everything else must be invariant under the
// worker count for simulation-only fleets.
type Result struct {
	Switches    int // simulated members
	TCPSwitches int
	Workers     int
	Rounds      int

	// Inferences counts completed inference rounds fleet-wide (size rounds
	// on simulated members, cost-fitting rounds on TCP members);
	// InferErrs the failures. ScoreCards counts cost cards stored.
	Inferences int
	InferErrs  int
	ScoreCards int

	// Op totals across every member's engine ledger.
	FlowMods int64
	Probes   int64
	Punted   int64

	// Sentinel RTT distribution. Simulated members contribute virtual
	// durations (deterministic); TCP members wall-clock ones.
	RTTSamples  int
	P50ProbeRTT time.Duration
	P99ProbeRTT time.Duration

	// Pacing activity: rounds that had to wait for budget, and for how
	// long in total (wall-derived).
	Throttles    int64
	ThrottleWait time.Duration

	PerSwitch []SwitchSummary

	// Wall-clock measurements, set by Run/Service.Stop.
	Wall           time.Duration
	SwitchesPerSec float64 // completed inferences per second
	FlowModsPerSec float64
}

// Deterministic returns a copy with the wall-derived fields and the
// worker-count echo zeroed; for simulation-only fleets the remainder must
// be invariant under Options.Workers.
func (r *Result) Deterministic() *Result {
	c := *r
	c.Workers = 0
	c.Wall, c.SwitchesPerSec, c.FlowModsPerSec = 0, 0, 0
	// Pacing activity depends on wall-clock interleaving, not results.
	c.Throttles, c.ThrottleWait = 0, 0
	return &c
}

// member is one switch's continuously re-inferred state. Exactly one shard
// worker touches a member during a round; the fold reads it only after the
// round barrier.
type member struct {
	idx  int
	name string
	tcp  bool
	sw   *switchsim.Switch // nil for TCP members
	eng  *probe.Engine
	reg  *telemetry.Registry
	trk  *telemetry.FlightTrack
	bkt  *tokenBucket

	last      probe.EngineStats
	rounds    int
	infers    int
	errs      int
	lastErr   string
	cards     int
	levels    int
	cacheSize int
	rtts      []time.Duration
	throttles int64
	throttle  time.Duration
}

// now returns the member's measurement timeline: the switch's virtual clock
// for simulated members, wall time for TCP ones.
func (m *member) now() time.Time {
	if m.sw != nil {
		return m.sw.Now()
	}
	return time.Now()
}

// runner owns a fleet's members and executes rounds over them. Run and
// Service share it.
type runner struct {
	o       Options
	members []*member
	gate    chan struct{}
	db      *pattern.DB
}

func newRunner(o Options) (*runner, error) {
	o = o.withDefaults()
	r := &runner{o: o, db: pattern.NewDB()}

	specs := conformance.GenerateSpecs(o.Switches, o.Seed)
	for i, spec := range specs {
		name := fmt.Sprintf("sim-%03d", i)
		sw := switchsim.New(spec.Profile,
			switchsim.WithClock(simclock.NewVirtual()),
			switchsim.WithSeed(spec.Seed),
		)
		m := &member{idx: i, name: name, sw: sw, reg: telemetry.NewRegistry()}
		m.eng = probe.NewEngine(probe.SimDevice{S: sw})
		r.initMember(m)
	}
	for _, t := range o.TCP {
		m := &member{idx: len(r.members), name: t.Name, tcp: true, reg: telemetry.NewRegistry()}
		m.eng = probe.NewEngine(t.Ctrl)
		r.initMember(m)
	}
	if len(r.members) == 0 {
		return nil, fmt.Errorf("fleet: no members (Switches=0 and no TCP members)")
	}
	if r.o.Workers <= 0 {
		r.o.Workers = runtime.GOMAXPROCS(0)
	}
	if r.o.Workers > len(r.members) {
		r.o.Workers = len(r.members)
	}
	if o.MaxInflight > 0 {
		r.gate = make(chan struct{}, o.MaxInflight)
	}
	return r, nil
}

// initMember finishes a member's wiring: private telemetry (the engine's
// wall-clock flight binding is dropped — the runner records its own samples
// on the member timeline), the member-name label, pacing bucket, and the
// fleet flight track.
func (r *runner) initMember(m *member) {
	m.eng.SetTelemetry(m.reg, nil)
	m.eng.SetFlight(nil)
	m.eng.SetLabel(m.name)
	if r.o.Flight != nil {
		m.trk = r.o.Flight.Track(m.name)
	}
	m.bkt = newTokenBucket(r.o.ProbeRate, float64(4*r.o.MaxRules), r.o.now, r.o.sleep)
	r.members = append(r.members, m)
}

// round executes one inference round for every member on Workers
// goroutines. A member's results depend only on its index, the round and
// the seed, so which worker runs it is immaterial (the determinism
// contract).
func (r *runner) round(n int) {
	parallel.ForEach(len(r.members), r.o.Workers, func(i int) {
		r.runMember(r.members[i], n)
	})
}

// runMember is one member's round: budget admission, inference, cost
// fitting, sentinel RTT probes, and the ledger update. All probes inside
// are serial on the member's channel.
func (r *runner) runMember(m *member, round int) {
	if r.gate != nil {
		r.gate <- struct{}{}
		defer func() { <-r.gate }()
	}
	if w := m.bkt.admit(); w > 0 {
		m.throttles++
		m.throttle += w
	}

	if m.tcp {
		// TCP members' per-round inference is control-channel cost fitting:
		// robust under loopback jitter, unlike RTT-cluster size probing.
		card, err := infer.MeasureCosts(m.eng, m.name, infer.CostOptions{Samples: costSamples})
		if err != nil {
			m.fail(err)
		} else {
			r.db.PutScore(card)
			m.cards++
			m.infers++
		}
	} else {
		// Sizes every round, costs on cadence; a failed round is one error.
		skip := infer.PhaseMicroflow | infer.PhasePolicy
		if round%costEvery != 0 {
			skip |= infer.PhaseCosts
		}
		model, err := infer.Inspect(m.eng, infer.InspectOptions{
			Name: m.name,
			Size: infer.SizeOptions{
				Priority: probePriority,
				MaxRules: r.o.MaxRules,
				Trials:   sizeTrials,
				// Per-(member, round) seed: worker count must never reach the
				// sampling RNG.
				Seed:       r.o.Seed + int64(m.idx)*1_000_003 + int64(round)*7919,
				FlowIDBase: sizeFlowBase + uint32(round)*uint32(2*r.o.MaxRules),
			},
			Cost: infer.CostOptions{Samples: costSamples},
			Skip: skip,
		})
		if err != nil {
			m.fail(err)
		} else {
			m.infers++
			m.levels = len(model.Sizes.Levels)
			m.cacheSize = model.Sizes.Levels[0].Census
			if model.Costs != nil {
				r.db.PutScore(model.Costs)
				m.cards++
			}
		}
	}

	// Sentinel RTT probes: install one rule, measure it serially, remove
	// it. These are the fleet's probe-latency signal under load.
	sid := sentinelBase + uint32(round)
	if err := m.eng.Install(sid, probePriority); err != nil {
		m.fail(err)
	} else {
		for i := 0; i < sentinelProbes; i++ {
			rtt, punted, err := m.eng.Probe(sid)
			if err != nil {
				m.fail(err)
				break
			}
			m.rtts = append(m.rtts, rtt)
			if m.trk != nil {
				now := m.now()
				m.trk.Record(now, now, rtt, sid, punted)
			}
		}
		_ = m.eng.Delete(sid, probePriority)
	}

	m.rounds++
	st := m.eng.Stats()
	m.bkt.charge(float64(st.Probes - m.last.Probes))
	m.last = st
}

// fail counts one failed step and keeps its cause.
func (m *member) fail(err error) {
	m.errs++
	m.lastErr = err.Error()
}

// fold aggregates member state into a Result, always in member order, and
// publishes the fleet-level metrics to the configured registry.
func (r *runner) fold() *Result {
	res := &Result{Workers: r.o.Workers}
	var all []time.Duration
	for _, m := range r.members {
		if m.tcp {
			res.TCPSwitches++
		} else {
			res.Switches++
		}
		if m.rounds > res.Rounds {
			res.Rounds = m.rounds
		}
		st := m.eng.Stats()
		res.FlowMods += st.FlowMods
		res.Probes += st.Probes
		res.Punted += st.Punted
		res.Inferences += m.infers
		res.InferErrs += m.errs
		res.ScoreCards += m.cards
		res.Throttles += m.throttles
		res.ThrottleWait += m.throttle
		all = append(all, m.rtts...)
		res.PerSwitch = append(res.PerSwitch, SwitchSummary{
			Name: m.name, TCP: m.tcp,
			Rounds: m.rounds, Inferences: m.infers, Errs: m.errs, LastErr: m.lastErr,
			Levels: m.levels, CacheSize: m.cacheSize, ScoreCards: m.cards,
			FlowMods: st.FlowMods, Probes: st.Probes, Punted: st.Punted,
		})
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	res.RTTSamples = len(all)
	if n := len(all); n > 0 {
		res.P50ProbeRTT = all[n/2]
		res.P99ProbeRTT = all[min(n-1, n*99/100)]
	}

	reg := r.o.Registry
	reg.Counter("fleet.inferences").Add(int64(res.Inferences))
	reg.Counter("fleet.infer_errs").Add(int64(res.InferErrs))
	reg.Counter("fleet.flow_mods").Add(res.FlowMods)
	reg.Counter("fleet.probes").Add(res.Probes)
	reg.Counter("fleet.throttles").Add(res.Throttles)
	reg.Gauge("fleet.switches").Set(int64(res.Switches + res.TCPSwitches))
	rounds := reg.CounterVec("fleet.rounds", "switch")
	for _, s := range res.PerSwitch {
		rounds.With(s.Name).Add(int64(s.Rounds))
	}
	hist := reg.Histogram("fleet.probe_rtt_ns")
	for _, d := range all {
		hist.Observe(float64(d))
	}
	return res
}

// Scores returns the score database the run's cost fitting filled — the
// scheduler's cost oracle for the whole fleet.
func (r *runner) scores() *pattern.DB { return r.db }

// Run executes Options.Rounds inference rounds over the fleet and returns
// the folded result with wall-clock rates.
func Run(o Options) (*Result, error) {
	r, err := newRunner(o)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for n := 0; n < r.o.Rounds; n++ {
		r.round(n)
	}
	wall := time.Since(start)
	res := r.fold()
	res.finishRates(wall)
	return res, nil
}

// finishRates stamps the wall-derived throughput fields.
func (r *Result) finishRates(wall time.Duration) {
	r.Wall = wall
	if wall > 0 {
		r.SwitchesPerSec = float64(r.Inferences) / wall.Seconds()
		r.FlowModsPerSec = float64(r.FlowMods) / wall.Seconds()
	}
}

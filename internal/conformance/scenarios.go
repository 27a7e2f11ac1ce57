package conformance

import (
	"fmt"
	"math/rand"
	"time"

	"tango/internal/core/infer"
	"tango/internal/core/probe"
	"tango/internal/switchsim"
	"tango/internal/telemetry"
	"tango/internal/workload"
)

// scenarios.go is the adversarial/churn half of the conformance harness:
// where conformance.Run scores inference against randomized-but-quiet
// switches, the scenario catalog scores it against hostile and pathological
// *traffic* — overflow-probing attacks (arXiv 1504.03095), heavy
// timeout-driven churn, and cache-management policies outside the LEX model
// (arXiv 1909.03059 destination aggregation, arXiv 1803.04270 FDRC). Every
// scenario is a pure function of its seed: it either converges within its
// pinned tolerance or fails with a typed error, bit-for-bit reproducibly.

// Scenario is one adversarial workload conformance entry.
type Scenario struct {
	// Name identifies the scenario (catalog key and telemetry label).
	Name string
	// Family groups scenarios: "overflow", "churn", or "altpolicy".
	Family string
	// Seed drives every RNG in the scenario.
	Seed int64
	// Tolerance is the accepted relative size error for size-bearing
	// gates (0 when the scenario carries no size gate).
	Tolerance float64
	// MinExpirations is the churn non-vacuity floor: the scenario fails
	// unless at least this many rules expired while inference ran.
	MinExpirations uint64
	// ExpectPolicy pins the altpolicy verdict: "reject" (typed
	// ErrUnclassifiablePolicy) or "classify:<policy>" (Algorithm 2 settles
	// on exactly that LEX composite).
	ExpectPolicy string
}

// Scenarios returns the gated catalog. Seeds, tolerances, and expected
// verdicts are pinned — EXPERIMENTS.md documents each entry — so a change
// in any scenario's outcome is a regression, not noise.
func Scenarios() []Scenario {
	return []Scenario{
		{Name: "overflow-attack-timing", Family: "overflow", Seed: 71, Tolerance: 0.15},
		{Name: "overflow-clean-zipf", Family: "overflow", Seed: 72},
		{Name: "overflow-infer-under-attack", Family: "overflow", Seed: 73, Tolerance: 0.15},
		{Name: "churn-size-fifo", Family: "churn", Seed: 74, Tolerance: 0.10, MinExpirations: 50},
		{Name: "churn-size-lru", Family: "churn", Seed: 75, Tolerance: 0.25, MinExpirations: 50},
		{Name: "churn-policy-fifo", Family: "churn", Seed: 76, MinExpirations: 100},
		{Name: "altpolicy-dest-aggregate", Family: "altpolicy", Seed: 77, Tolerance: 0.15, ExpectPolicy: "reject"},
		// FDRC's recency-windowed traffic scores are observationally
		// equivalent to LRU under decorrelated probe rounds, so Algorithm 2
		// classifies rather than rejects — pinned as such.
		{Name: "altpolicy-fdrc", Family: "altpolicy", Seed: 78, Tolerance: 0.15, ExpectPolicy: "classify:use_time(keep-high)"},
	}
}

// ScenarioResult is one scenario's outcome. Err is carried as text so
// results from repeated runs compare with reflect.DeepEqual (the
// determinism gate).
type ScenarioResult struct {
	Scenario Scenario
	// Estimate / SizeError report the size gate, when present.
	Estimate  int
	SizeError float64
	// Alarms / RevisitDemotions / Windows report the detector, when attached.
	Alarms           int
	RevisitDemotions int
	Windows          int
	// Expirations is the switch's expired-rule count at the end of the run.
	Expirations uint64
	// BackgroundApplied counts background schedule events executed.
	BackgroundApplied int
	// Policy is the inferred policy string (policy-bearing scenarios).
	Policy string
	// TypedReject reports that policy classification failed with the typed
	// ErrUnclassifiablePolicy (the expected verdict for non-LEX policies).
	TypedReject bool
	// ErrText is the pipeline error, "" when the scenario converged.
	ErrText string
	// Pass is the gate verdict; Verdict explains it.
	Pass    bool
	Verdict string
}

// String renders one scenario row.
func (r ScenarioResult) String() string {
	status := "PASS"
	if !r.Pass {
		status = "FAIL"
	}
	return fmt.Sprintf("%-28s [%s] %s", r.Scenario.Name, status, r.Verdict)
}

// RunScenario executes one catalog scenario and evaluates its gate.
func RunScenario(sc Scenario) ScenarioResult {
	var res ScenarioResult
	switch sc.Name {
	case "overflow-attack-timing":
		res = runAttackTiming(sc)
	case "overflow-clean-zipf":
		res = runCleanZipf(sc)
	case "overflow-infer-under-attack":
		res = runInferUnderAttack(sc)
	case "churn-size-fifo":
		res = runChurnSize(sc, switchsim.PolicyFIFO, 150, 0.3)
	case "churn-size-lru":
		res = runChurnSize(sc, switchsim.PolicyLRU, 40, 0.5)
	case "churn-policy-fifo":
		res = runChurnPolicy(sc)
	case "altpolicy-dest-aggregate":
		res = runAltPolicy(sc, switchsim.PolicyDestAggregate(), "altpolicy-destagg")
	case "altpolicy-fdrc":
		res = runAltPolicy(sc, switchsim.PolicyFDRC(4096), "altpolicy-fdrc")
	default:
		res = ScenarioResult{Scenario: sc, ErrText: "unknown scenario", Verdict: "unknown scenario"}
	}
	noteScenario(&res)
	return res
}

// noteScenario labels the run in the process telemetry (nil-safe when no
// registry is installed).
func noteScenario(r *ScenarioResult) {
	reg := telemetry.Default()
	name := r.Scenario.Name
	reg.CounterVec("conformance.scenario.runs", "scenario").With(name).Add(1)
	if !r.Pass {
		reg.CounterVec("conformance.scenario.failures", "scenario").With(name).Add(1)
	}
	reg.CounterVec("conformance.scenario.detector_alarms", "scenario").With(name).Add(int64(r.Alarms))
	reg.CounterVec("conformance.scenario.expirations", "scenario").With(name).Add(int64(r.Expirations))
	reg.CounterVec("conformance.scenario.background_ops", "scenario").With(name).Add(int64(r.BackgroundApplied))
}

// attackProfile is the device under attack: an LRU cache, the policy family
// the 1504.03095 timing attack targets (new flows always admitted, silent
// flows aging toward eviction).
func attackProfile(name string, cache, softCap int) switchsim.Profile {
	p := switchsim.TestSwitch(cache, switchsim.PolicyLRU)
	p.Name = name
	p.SoftwareCapacity = softCap
	return p
}

// runAttackTiming plays the attacker: execute the overflow schedule against
// an LRU switch with the detector attached, time the canary revisits, and
// estimate the cache size from the first canary that comes back slow. The
// gate requires the attack to *work* (estimate within tolerance — the
// threat is real) and the detector to *see it* (≥1 alarm window plus the
// canary-demotion footprint).
func runAttackTiming(sc Scenario) ScenarioResult {
	const cache = 128
	res := ScenarioResult{Scenario: sc}
	det := switchsim.NewOverflowDetector()
	sw := switchsim.New(attackProfile("adv-attack-lru", cache, 1024),
		switchsim.WithSeed(sc.Seed), switchsim.WithDetector(det))
	e := probe.NewEngine(probe.SimDevice{S: sw})

	aopts := workload.AttackOptions{Canaries: 16, Step: 16, MaxFills: 320}
	ops := workload.OverflowAttack(aopts)
	aopts = aopts.WithDefaults()
	base := workload.AttackFlowBase
	fillBase := base + uint32(aopts.Canaries)

	var baselineMax time.Duration
	fills := 0
	estimate := 0
	for _, op := range ops {
		switch op.Kind {
		case workload.AttackInstall:
			if err := e.Install(op.Flow, 900); err != nil {
				res.ErrText = fmt.Sprintf("attack install: %v", err)
				res.Verdict = res.ErrText
				return res
			}
			if op.Flow >= fillBase {
				fills++
			}
		case workload.AttackProbe:
			rtt, _, err := e.Probe(op.Flow)
			if err != nil {
				res.ErrText = fmt.Sprintf("attack probe: %v", err)
				res.Verdict = res.ErrText
				return res
			}
			if op.Flow >= fillBase {
				continue
			}
			k := int(op.Flow - base)
			if fills == 0 {
				// Canary phase: collect the fast-path timing baseline.
				if rtt > baselineMax {
					baselineMax = rtt
				}
				continue
			}
			// Milestone revisit: slow means this canary was evicted.
			if estimate == 0 && rtt > baselineMax*5/2 {
				upper := aopts.Canaries - k - 1 + fills
				if k == 0 {
					estimate = upper
				} else {
					lower := aopts.Canaries - k + (fills - aopts.Step)
					estimate = (lower + 1 + upper) / 2
				}
			}
		}
	}
	res.Estimate = estimate
	res.SizeError = relError(estimate, cache)
	res.Alarms = det.Alarms()
	res.RevisitDemotions = det.RevisitDemotions()
	res.Windows = det.Windows()

	switch {
	case estimate == 0:
		res.Verdict = "attack never observed an eviction"
	case res.SizeError > sc.Tolerance:
		res.Verdict = fmt.Sprintf("attack estimate %d/%d err %.1f%% exceeds %.0f%%",
			estimate, cache, 100*res.SizeError, 100*sc.Tolerance)
	case res.Alarms < 1:
		res.Verdict = fmt.Sprintf("detector silent across %d windows", res.Windows)
	case res.RevisitDemotions < 1:
		res.Verdict = "no canary demotion footprint recorded"
	default:
		res.Pass = true
		res.Verdict = fmt.Sprintf("attack estimate %d/%d (err %.1f%%), detector alarms %d/%d windows, %d canary demotions",
			estimate, cache, 100*res.SizeError, res.Alarms, res.Windows, res.RevisitDemotions)
	}
	return res
}

// runCleanZipf replays an organic Zipf trace (flow popularity decorrelated
// from address order, as in the qos experiment) through the same detector
// configuration. The gate is silence: zero alarm windows across a
// non-vacuous number of evaluated windows.
func runCleanZipf(sc Scenario) ScenarioResult {
	const (
		cache   = 256
		rules   = 1024
		packets = 30000
	)
	res := ScenarioResult{Scenario: sc}
	det := switchsim.NewOverflowDetector()
	sw := switchsim.New(attackProfile("adv-clean-lru", cache, 4096),
		switchsim.WithSeed(sc.Seed), switchsim.WithDetector(det))
	e := probe.NewEngine(probe.SimDevice{S: sw})

	for i := 0; i < rules; i++ {
		if err := e.Install(uint32(i), 100); err != nil {
			res.ErrText = fmt.Sprintf("install: %v", err)
			res.Verdict = res.ErrText
			return res
		}
	}
	trace := workload.Generate(workload.Options{
		Kind: workload.KindZipf, Flows: rules, Packets: packets, Skew: 1.2, Seed: sc.Seed + 1,
	})
	// Decorrelate popularity from flow ID (and hence address adjacency):
	// popular flows land on random addresses, like real assignments.
	perm := rand.New(rand.NewSource(sc.Seed + 2)).Perm(rules)
	for _, f := range trace {
		if _, _, err := e.Probe(uint32(perm[f])); err != nil {
			res.ErrText = fmt.Sprintf("probe: %v", err)
			res.Verdict = res.ErrText
			return res
		}
	}
	res.Alarms = det.Alarms()
	res.Windows = det.Windows()
	res.RevisitDemotions = det.RevisitDemotions()
	switch {
	case res.Windows < 100:
		res.Verdict = fmt.Sprintf("only %d detector windows evaluated (vacuous)", res.Windows)
	case res.Alarms != 0:
		res.Verdict = fmt.Sprintf("false positives: %d alarms in %d clean windows", res.Alarms, res.Windows)
	default:
		res.Pass = true
		res.Verdict = fmt.Sprintf("0 alarms across %d clean Zipf windows", res.Windows)
	}
	return res
}

// runInferUnderAttack runs Tango's size inference while an AttackDriver
// replays the overflow schedule as a concurrent tenant. The gate: the
// estimate still lands within tolerance — the attack steals cache slots and
// burns table space, but the negative-binomial estimator keeps converging.
func runInferUnderAttack(sc Scenario) ScenarioResult {
	const cache = 96
	res := ScenarioResult{Scenario: sc}
	sw := switchsim.New(attackProfile("adv-infer-attack", cache, 6*cache), switchsim.WithSeed(sc.Seed))
	ad := &AttackDriver{Ops: workload.OverflowAttack(workload.AttackOptions{
		Canaries: 16, Step: 16, MaxFills: 256,
	})}
	e := probe.NewEngine(WrapBackground(probe.SimDevice{S: sw}, ad))

	sres, err := infer.ProbeSizes(e, infer.SizeOptions{Seed: sc.Seed + 1, MaxRules: 4 * cache})
	res.BackgroundApplied = ad.Applied()
	if err != nil {
		res.ErrText = fmt.Sprintf("size stage: %v", err)
		res.Verdict = res.ErrText
		return res
	}
	res.Estimate = sres.Levels[0].Size
	res.SizeError = relError(res.Estimate, cache)
	switch {
	case res.BackgroundApplied == 0:
		res.Verdict = "attack driver never ran (vacuous)"
	case res.SizeError > sc.Tolerance:
		res.Verdict = fmt.Sprintf("estimate %d/%d err %.1f%% exceeds %.0f%% under attack",
			res.Estimate, cache, 100*res.SizeError, 100*sc.Tolerance)
	default:
		res.Pass = true
		res.Verdict = fmt.Sprintf("estimate %d/%d (err %.1f%%) with %d attack ops interleaved",
			res.Estimate, cache, 100*res.SizeError, res.BackgroundApplied)
	}
	return res
}

// runChurnSize runs size inference while a ChurnDriver expires and
// re-installs a flow population through the switch's timeout sweep.
func runChurnSize(sc Scenario, policy switchsim.Policy, rate float64, touchFrac float64) ScenarioResult {
	const cache = 96
	res := ScenarioResult{Scenario: sc}
	p := switchsim.TestSwitch(cache, policy)
	p.Name = sc.Name
	p.SoftwareCapacity = 5 * cache
	sw := switchsim.New(p, switchsim.WithSeed(sc.Seed))
	cd := NewChurnDriver(workload.Churn(workload.ChurnOptions{
		Flows: cache, Rate: rate, Duration: 5 * time.Minute,
		TouchFrac: touchFrac, Seed: sc.Seed + 1,
	}))
	e := probe.NewEngine(WrapBackground(probe.SimDevice{S: sw}, cd))

	sres, err := infer.ProbeSizes(e, infer.SizeOptions{Seed: sc.Seed + 2, MaxRules: 4 * cache})
	res.BackgroundApplied = cd.Applied()
	res.Expirations = sw.Stats().Expirations
	if err != nil {
		res.ErrText = fmt.Sprintf("size stage: %v", err)
		res.Verdict = res.ErrText
		return res
	}
	res.Estimate = sres.Levels[0].Size
	res.SizeError = relError(res.Estimate, cache)
	switch {
	case res.Expirations < sc.MinExpirations:
		res.Verdict = fmt.Sprintf("only %d expirations (floor %d, vacuous churn)", res.Expirations, sc.MinExpirations)
	case res.SizeError > sc.Tolerance:
		res.Verdict = fmt.Sprintf("estimate %d/%d err %.1f%% exceeds %.0f%% under churn",
			res.Estimate, cache, 100*res.SizeError, 100*sc.Tolerance)
	default:
		res.Pass = true
		res.Verdict = fmt.Sprintf("estimate %d/%d (err %.1f%%) with %d churn events, %d expirations",
			res.Estimate, cache, 100*res.SizeError, res.BackgroundApplied, res.Expirations)
	}
	return res
}

// runChurnPolicy runs policy inference on a FIFO cache under churn. FIFO
// keeps the oldest flows, so churn installs (younger than every probe flow)
// can never displace the measurement population — recovery must stay exact
// while hundreds of background rules expire.
func runChurnPolicy(sc Scenario) ScenarioResult {
	const cache = 64
	res := ScenarioResult{Scenario: sc}
	p := switchsim.TestSwitch(cache, switchsim.PolicyFIFO)
	p.Name = sc.Name
	p.SoftwareCapacity = 4 * cache
	sw := switchsim.New(p, switchsim.WithSeed(sc.Seed))
	cd := NewChurnDriver(workload.Churn(workload.ChurnOptions{
		Flows: cache, Rate: 60, Duration: 10 * time.Minute,
		TouchFrac: 0.3, Seed: sc.Seed + 1,
	}))
	e := probe.NewEngine(WrapBackground(probe.SimDevice{S: sw}, cd))

	pres, err := infer.ProbePolicy(e, infer.PolicyOptions{CacheSize: cache, Seed: sc.Seed + 2})
	res.BackgroundApplied = cd.Applied()
	res.Expirations = sw.Stats().Expirations
	if err != nil {
		res.ErrText = fmt.Sprintf("policy stage: %v", err)
		res.Verdict = res.ErrText
		return res
	}
	res.Policy = pres.Policy.String()
	switch {
	case res.Expirations < sc.MinExpirations:
		res.Verdict = fmt.Sprintf("only %d expirations (floor %d, vacuous churn)", res.Expirations, sc.MinExpirations)
	case !pres.Policy.Equal(switchsim.PolicyFIFO):
		res.Verdict = fmt.Sprintf("recovered %q, want %q", res.Policy, switchsim.PolicyFIFO)
	default:
		res.Pass = true
		res.Verdict = fmt.Sprintf("recovered %q exactly with %d churn events, %d expirations",
			res.Policy, res.BackgroundApplied, res.Expirations)
	}
	return res
}

// runAltPolicy runs the pipeline — size inference, then the policy probe
// held to a hard verdict — against a cache-management policy outside the LEX
// model. The size stage must still converge (capacity is policy-independent);
// the verdict must be the pinned one: a typed ErrUnclassifiablePolicy
// rejection, or (when the policy's observable behaviour coincides with a LEX
// composite) exactly that composite.
func runAltPolicy(sc Scenario, policy switchsim.Policy, name string) ScenarioResult {
	const cache = 128
	res := ScenarioResult{Scenario: sc}
	p := switchsim.TestSwitch(cache, policy)
	p.Name = name
	p.SoftwareCapacity = 3 * cache

	sw := switchsim.New(p, switchsim.WithSeed(sc.Seed))
	m, err := infer.Inspect(probe.NewEngine(probe.SimDevice{S: sw}), infer.InspectOptions{
		Size: infer.SizeOptions{Seed: sc.Seed + 1, MaxRules: 8 * cache},
	})
	if err != nil {
		res.ErrText = err.Error()
		res.Verdict = res.ErrText
		return res
	}
	res.Estimate = m.Sizes.Levels[0].Size
	res.SizeError = relError(res.Estimate, cache)
	if res.SizeError > sc.Tolerance {
		res.Verdict = fmt.Sprintf("size estimate %d/%d err %.1f%% exceeds %.0f%%",
			res.Estimate, cache, 100*res.SizeError, 100*sc.Tolerance)
		return res
	}
	if m.Policy == nil {
		res.Verdict = "size stage found no cache to policy-probe"
		return res
	}
	res.Policy = m.Policy.Policy.String()
	if err := m.Policy.Verdict(); err != nil {
		res.TypedReject = true
		res.ErrText = err.Error()
	}

	want := sc.ExpectPolicy
	switch {
	case want == "reject" && res.TypedReject:
		res.Pass = true
		res.Verdict = fmt.Sprintf("rejected with typed error as pinned: %s", res.ErrText)
	case want == "reject":
		res.Verdict = fmt.Sprintf("expected typed rejection, classified as %q", res.Policy)
	case res.TypedReject:
		res.Verdict = fmt.Sprintf("expected classification %q, got typed rejection: %s", want, res.ErrText)
	case "classify:"+res.Policy == want:
		res.Pass = true
		res.Verdict = fmt.Sprintf("classified as %q as pinned", res.Policy)
	default:
		res.Verdict = fmt.Sprintf("classified as %q, pinned verdict %q", res.Policy, want)
	}
	return res
}

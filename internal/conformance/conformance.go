// Package conformance is the ground-truth regression gate for Tango's
// inference pipeline: it generates randomized switchsim profiles whose true
// properties (table layer sizes, LEX cache policies) are known, runs
// infer.Inspect whole against each, on one switch — optionally through the
// deterministic fault injector — and scores how accurately the pipeline
// recovered sizes and policies. The cost phase must converge on every spec (a
// `cost stage:` row otherwise); scoring its card is ROADMAP item 5's.
//
// The clean-channel contract (asserted by the package tests and runnable
// via `tangobench -only conformance`): size estimates land within 10% of
// the configured capacity and cache policies are recovered exactly. Under
// injected faults the contract weakens to convergence: every run either
// produces estimates or fails with a typed fault error — never a hang or a
// panic — and is bit-for-bit reproducible from its seed.
package conformance

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime/debug"
	"strings"
	"time"

	"tango/internal/core/infer"
	"tango/internal/core/probe"
	"tango/internal/faults"
	"tango/internal/parallel"
	"tango/internal/switchsim"
)

// Spec is one randomized ground-truth profile to be recovered.
type Spec struct {
	// Name labels the spec in results and tables.
	Name string
	// Profile is the generated switch configuration.
	Profile switchsim.Profile
	// CacheSize is the true capacity of the fastest layer.
	CacheSize int
	// Policy is the true cache policy; empty Keys for TCAM-only specs,
	// which skip the policy-recovery check.
	Policy switchsim.Policy
	// Seed drives the switch's latency draws and the probe RNGs.
	Seed int64
}

// GenerateSpecs draws n randomized specs from seed. Every fourth spec is a
// TCAM-only hierarchy (two observable layers: hardware and punt); the rest
// are policy-cache hierarchies (three layers) with a random LEX composite.
// Generation is a pure function of (n, seed).
func GenerateSpecs(n int, seed int64) []Spec {
	rng := rand.New(rand.NewSource(seed))
	specs := make([]Spec, 0, n)
	for i := 0; i < n; i++ {
		if i%4 == 3 {
			capacity := 64 + rng.Intn(192)
			p := switchsim.TestSwitch(capacity, switchsim.Policy{})
			p.Kind = switchsim.ManageTCAMOnly
			p.SoftwareCapacity = 0
			p.Name = fmt.Sprintf("conf-%02d-tcam-%d", i, capacity)
			scaleCosts(&p, rng)
			specs = append(specs, Spec{
				Name: p.Name, Profile: p, CacheSize: capacity, Seed: rng.Int63(),
			})
			continue
		}
		cache := 48 + rng.Intn(81)
		policy := randomPolicy(rng)
		p := switchsim.TestSwitch(cache, policy)
		// A bounded software table makes the doubling phase terminate with a
		// genuine table-full rejection, keeping each spec's probe budget at
		// a few times the cache size.
		p.SoftwareCapacity = 3 * cache
		p.Name = fmt.Sprintf("conf-%02d-cache-%d", i, cache)
		scaleCosts(&p, rng)
		specs = append(specs, Spec{
			Name: p.Name, Profile: p, CacheSize: cache, Policy: policy, Seed: rng.Int63(),
		})
	}
	return specs
}

// randomPolicy draws an identifiable LEX composite: up to two non-serial
// prefix keys (traffic, priority — random subset, order, and direction)
// terminated by a serial key. The serial terminator is what makes the
// ground truth recoverable at all: switchsim's Better() breaks exhausted
// comparisons by insertion order, so a policy without a serial key would
// behave like one with an implicit insertion terminator and Algorithm 2
// would (correctly) report that longer ordering. Use-time keeps its
// recently-used direction — an anti-LRU cache is perturbed by the very act
// of measuring it, which violates the paper's MONOTONE observability
// assumption rather than our implementation.
func randomPolicy(rng *rand.Rand) switchsim.Policy {
	nonSerial := []switchsim.Attribute{switchsim.AttrTraffic, switchsim.AttrPriority}
	order := rng.Perm(len(nonSerial))
	var keys []switchsim.SortKey
	for _, idx := range order[:rng.Intn(len(nonSerial)+1)] {
		keys = append(keys, switchsim.SortKey{
			Attr:         nonSerial[idx],
			HighIsBetter: rng.Intn(2) == 0,
		})
	}
	serial := switchsim.SortKey{Attr: switchsim.AttrInsertion, HighIsBetter: rng.Intn(2) == 0}
	if rng.Intn(2) == 0 {
		serial = switchsim.SortKey{Attr: switchsim.AttrUseTime, HighIsBetter: true}
	}
	keys = append(keys, serial)
	return switchsim.Policy{Keys: keys}
}

// scaleCosts randomizes the profile's cost curves and latency tiers within
// bands that keep the tiers separable, so the harness also covers switches
// whose absolute timings differ from the calibrated vendor models.
func scaleCosts(p *switchsim.Profile, rng *rand.Rand) {
	scale := func(d time.Duration, lo, hi float64) time.Duration {
		return time.Duration(float64(d) * (lo + rng.Float64()*(hi-lo)))
	}
	p.FastPath.Mean = scale(p.FastPath.Mean, 0.7, 1.3)
	p.SlowPath.Mean = scale(p.SlowPath.Mean, 0.8, 1.4)
	p.ControlPath.Mean = scale(p.ControlPath.Mean, 0.9, 1.3)
	p.Costs.AddBase = scale(p.Costs.AddBase, 0.6, 1.8)
	p.Costs.ModBase = scale(p.Costs.ModBase, 0.6, 1.8)
	p.Costs.DelBase = scale(p.Costs.DelBase, 0.6, 1.8)
	p.Costs.ShiftUnit = scale(p.Costs.ShiftUnit, 0.5, 2.0)
}

// Options configures a conformance run.
type Options struct {
	// Faults enables the injector; the zero value probes a clean channel.
	// An enabled injector hardens the probe engine with probe.DefaultRetry.
	Faults faults.Config
	// Workers caps the number of specs recovered concurrently; 0 means
	// GOMAXPROCS, 1 forces the old sequential behavior.
	Workers int
}

// sizeTolerance is the accepted relative size error.
const sizeTolerance = 0.10

// Result is one spec's recovery outcome.
type Result struct {
	Spec Spec
	// Err is the pipeline failure, nil when the pipeline converged.
	Err error
	// FaultTyped reports that Err is a typed fault-path error (injected
	// fault, exhausted retry budget, or timeout) rather than an organic
	// failure — the "fail cleanly" half of the fault-regime contract.
	FaultTyped bool
	// SizeEstimate is the fastest layer's inferred size.
	SizeEstimate int
	// SizeError is |estimate−truth|/truth.
	SizeError float64
	// SizeOK reports SizeError within tolerance.
	SizeOK bool
	// InferredPolicy is Algorithm 2's answer (policy-cache specs only).
	InferredPolicy switchsim.Policy
	// PolicyChecked distinguishes specs where policy recovery applies.
	PolicyChecked bool
	// PolicyOK reports exact recovery of the true key sequence.
	PolicyOK bool
}

// String renders one result row. A panic row is followed by the panicking
// goroutine's stack.
func (r Result) String() string {
	if r.Err != nil {
		kind := "organic"
		if r.FaultTyped {
			kind = "typed fault"
		}
		s := fmt.Sprintf("%s: error (%s): %v", r.Spec.Name, kind, r.Err)
		var pe *SpecPanicError
		if errors.As(r.Err, &pe) {
			s += "\n" + strings.TrimRight(pe.Stack, "\n")
		}
		return s
	}
	s := fmt.Sprintf("%s: size %d/%d (err %.1f%%)", r.Spec.Name, r.SizeEstimate, r.Spec.CacheSize, 100*r.SizeError)
	if r.PolicyChecked {
		ok := "exact"
		if !r.PolicyOK {
			ok = "WRONG: " + r.InferredPolicy.String()
		}
		s += fmt.Sprintf(", policy %s (%s)", r.Spec.Policy, ok)
	}
	return s
}

// RunSpec executes the inference pipeline — infer.Inspect, whole, costs
// included — against one switch built from the spec, TCAM-only specs too.
// The policy phase runs on the very switch the size phase just filled and
// cleared; TestWholePipelineRandomized holds that exact over 720 generated
// policy caches.
func RunSpec(spec Spec, opts Options) Result {
	res := Result{Spec: spec, PolicyChecked: spec.Profile.Kind == switchsim.ManagePolicyCache}
	inj := faults.NewInjector(opts.Faults)
	sw := switchsim.New(spec.Profile, switchsim.WithSeed(spec.Seed))
	e := probe.NewEngine(newDevice(sw, inj, nil))
	if inj != nil {
		e.Retry = probe.DefaultRetry
	}

	m, err := infer.Inspect(e, infer.InspectOptions{
		Name: spec.Name,
		Size: infer.SizeOptions{Seed: spec.Seed + 1, MaxRules: 8 * spec.CacheSize},
	})
	if err != nil {
		res.Err = err
		res.FaultTyped = faultTyped(err)
		return res
	}
	res.SizeEstimate = m.Sizes.Levels[0].Size
	res.SizeError = relError(res.SizeEstimate, spec.CacheSize)
	res.SizeOK = res.SizeError <= sizeTolerance
	if res.PolicyChecked && m.Policy != nil {
		res.InferredPolicy = m.Policy.Policy
		res.PolicyOK = m.Policy.Policy.Equal(spec.Policy)
	}
	return res
}

// ErrSpecPanic is the sentinel wrapped by SpecPanicError; match it with
// errors.Is.
var ErrSpecPanic = errors.New("conformance: spec panicked")

// SpecPanicError is the typed failure Run records when a spec's pipeline
// panics. A panicking spec used to kill the whole worker pool (taking the
// other in-flight specs' results with it); now it fails only its own row,
// preserving the harness's converge-or-typed-error contract.
type SpecPanicError struct {
	// Spec is the spec whose pipeline panicked.
	Spec Spec
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack string
}

// Error implements error.
func (e *SpecPanicError) Error() string {
	return fmt.Sprintf("%v: %s: %v", ErrSpecPanic, e.Spec.Name, e.Value)
}

// Unwrap lets errors.Is(err, ErrSpecPanic) match.
func (e *SpecPanicError) Unwrap() error { return ErrSpecPanic }

// runSpec indirects RunSpec so the panic-containment regression test can
// substitute an implementation that panics on cue.
var runSpec = RunSpec

// runSpecSafe converts a panicking spec into a Result carrying a typed
// SpecPanicError. FaultTyped stays false: a panic is an organic bug in the
// pipeline, not a fault-path outcome.
func runSpecSafe(spec Spec, opts Options) (res Result) {
	defer func() {
		if v := recover(); v != nil {
			res = Result{Spec: spec, Err: &SpecPanicError{
				Spec:  spec,
				Value: v,
				Stack: string(debug.Stack()),
			}}
		}
	}()
	return runSpec(spec, opts)
}

// Run executes every spec, fanning out across Options.Workers goroutines.
// Each spec owns its switches, virtual clock, RNGs, and fault injector
// (RunSpec builds a fresh injector per spec), so concurrent recovery is
// bit-for-bit identical to the sequential order; results come back indexed
// by spec position regardless of completion order. A spec whose pipeline
// panics surfaces as a SpecPanicError result instead of crashing the pool.
func Run(specs []Spec, opts Options) []Result {
	out := make([]Result, len(specs))
	parallel.ForEach(len(specs), opts.Workers, func(i int) {
		out[i] = runSpecSafe(specs[i], opts)
	})
	return out
}

// faultTyped classifies err as a typed fault-path failure: an injected
// fault, an exhausted retry budget, or anything carrying a Timeout or
// Transient marker (e.g. ofconn.ErrTimeout).
func faultTyped(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, faults.ErrInjected) || errors.Is(err, probe.ErrExhausted) {
		return true
	}
	var to interface{ Timeout() bool }
	if errors.As(err, &to) && to.Timeout() {
		return true
	}
	var tr interface{ Transient() bool }
	return errors.As(err, &tr)
}

func relError(est, actual int) float64 {
	if actual == 0 {
		return 0
	}
	d := est - actual
	if d < 0 {
		d = -d
	}
	return float64(d) / float64(actual)
}

// Summary aggregates a run.
type Summary struct {
	Profiles      int
	Converged     int
	SizeWithinTol int
	PolicyChecked int
	PolicyExact   int
	TypedFaults   int
	OrganicFails  int
	MaxSizeError  float64
}

// Summarize folds results into a Summary.
func Summarize(rs []Result) Summary {
	var s Summary
	s.Profiles = len(rs)
	for _, r := range rs {
		if r.Err != nil {
			if r.FaultTyped {
				s.TypedFaults++
			} else {
				s.OrganicFails++
			}
			continue
		}
		s.Converged++
		if r.SizeOK {
			s.SizeWithinTol++
		}
		if r.SizeError > s.MaxSizeError {
			s.MaxSizeError = r.SizeError
		}
		if r.PolicyChecked {
			s.PolicyChecked++
			if r.PolicyOK {
				s.PolicyExact++
			}
		}
	}
	return s
}

// String renders the summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf("profiles=%d converged=%d size_ok=%d (max err %.1f%%) policy_ok=%d/%d typed_faults=%d organic_fails=%d",
		s.Profiles, s.Converged, s.SizeWithinTol, 100*s.MaxSizeError,
		s.PolicyExact, s.PolicyChecked, s.TypedFaults, s.OrganicFails)
}

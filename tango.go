package tango

import (
	"fmt"
	"time"

	"tango/internal/core/infer"
	"tango/internal/core/pattern"
	"tango/internal/core/probe"
	"tango/internal/core/sched"
	"tango/internal/switchsim"
)

// Re-exported types: these aliases are the public names for the pieces of
// the system an application composes.
type (
	// Device is any switch reachable for probing: an in-process emulated
	// switch (SimDevice) or a live TCP OpenFlow endpoint
	// (internal/ofconn.Controller satisfies it).
	Device = probe.Device
	// Engine is the probing engine that applies Tango patterns.
	Engine = probe.Engine
	// Profile describes an emulated switch model.
	Profile = switchsim.Profile
	// Switch is an emulated OpenFlow switch.
	Switch = switchsim.Switch
	// Policy is a lexicographic cache-replacement policy.
	Policy = switchsim.Policy
	// SortKey is one attribute+direction component of a Policy.
	SortKey = switchsim.SortKey
	// ScoreCard is a switch's measured control-channel cost model.
	ScoreCard = pattern.ScoreCard
	// DB is the central Tango pattern and score database.
	DB = pattern.DB
	// Request is one switch request for the scheduler.
	Request = sched.Request
	// RequestGraph is a dependency DAG of switch requests.
	RequestGraph = sched.Graph
	// SizeResult reports flow-table size inference.
	SizeResult = infer.SizeResult
	// PolicyResult reports cache-policy inference.
	PolicyResult = infer.PolicyResult
)

// The four calibrated switch models of the paper's evaluation.
var (
	// ProfileOVS is the Open vSwitch software switch.
	ProfileOVS = switchsim.OVS
	// ProfileSwitch1 is the Vendor #1 hardware switch (FIFO software table
	// over a 2K/4K TCAM, strongly priority-sensitive installation).
	ProfileSwitch1 = switchsim.Switch1
	// ProfileSwitch2 is the Vendor #2 hardware switch (2560-entry
	// double-wide TCAM only).
	ProfileSwitch2 = switchsim.Switch2
	// ProfileSwitch3 is the Vendor #3 hardware switch (adaptive-width
	// 767/369 TCAM only).
	ProfileSwitch3 = switchsim.Switch3
)

// Cache policies for emulated switches.
var (
	PolicyFIFO     = switchsim.PolicyFIFO
	PolicyLRU      = switchsim.PolicyLRU
	PolicyLFU      = switchsim.PolicyLFU
	PolicyPriority = switchsim.PolicyPriority
)

// NewEmulatedSwitch builds an emulated switch from a profile, running on a
// virtual clock.
func NewEmulatedSwitch(p Profile, opts ...switchsim.Option) *Switch {
	return switchsim.New(p, opts...)
}

// NewEngine wraps a device in a probing engine.
func NewEngine(dev Device) *Engine { return probe.NewEngine(dev) }

// EngineFor wraps an emulated switch in a probing engine on its virtual
// clock.
func EngineFor(s *Switch) *Engine {
	return probe.NewEngine(probe.SimDevice{S: s})
}

// NewDB returns an empty pattern/score database.
func NewDB() *DB { return pattern.NewDB() }

// Model is the complete inferred fingerprint of one switch — what Tango
// knows after probing it.
type Model = infer.Model

// InspectOptions tunes Inspect. The zero value is sensible.
type InspectOptions struct {
	// Name labels the produced model and score card.
	Name string
	// Seed fixes all probing randomness.
	Seed int64
	// MaxRules bounds the size-probing budget (0 = default 16384).
	MaxRules int
	// SkipPolicy disables the (comparatively expensive) policy probe.
	SkipPolicy bool
	// SkipCosts disables control-cost fitting.
	SkipCosts bool
	// Retry bounds recovery from transient control-channel failures
	// (timeouts, injected faults). The zero value keeps every operation
	// single-attempt; probe.DefaultRetry suits lossy channels.
	Retry probe.Retry
}

// Inspect runs the full Tango inference pipeline against a device: size
// probing, microflow detection, cache-policy probing (when a cache sits in
// front of a larger table), and control-cost fitting. The sequence, what
// each phase hands the next and who removes which probe rules are
// infer.Inspect's; this is that pipeline behind flat options. The device
// should otherwise be idle, and its flow tables are assumed empty at entry
// (probe a switch before putting it in production, or drain it first).
func Inspect(dev Device, opts InspectOptions) (*Model, error) {
	if opts.Name == "" {
		opts.Name = "switch"
	}
	e := probe.NewEngine(dev)
	e.Retry = opts.Retry
	in := infer.InspectOptions{
		Name: opts.Name,
		Size: infer.SizeOptions{Seed: opts.Seed, MaxRules: opts.MaxRules},
	}
	if opts.SkipPolicy {
		in.Skip |= infer.PhasePolicy
	}
	if opts.SkipCosts {
		in.Skip |= infer.PhaseCosts
	}
	m, err := infer.Inspect(e, in)
	if err != nil {
		return nil, fmt.Errorf("tango: %w", err)
	}
	return m, nil
}

// NewRequestGraph returns an empty request DAG.
func NewRequestGraph() *RequestGraph { return sched.NewGraph() }

// TangoScheduler returns the measurement-driven scheduler (Algorithm 3)
// with priority sorting enabled.
func TangoScheduler(db *DB) sched.Scheduler {
	return &sched.Tango{DB: db, SortPriorities: true}
}

// DionysusScheduler returns the critical-path baseline scheduler.
func DionysusScheduler() sched.Scheduler { return sched.Dionysus{} }

// Schedule drains the request graph using the scheduler against per-switch
// probing engines and returns the simulated network-wide makespan.
func Schedule(g *RequestGraph, s sched.Scheduler, engines map[string]*Engine) (time.Duration, error) {
	ex := sched.EngineExecutor{}
	for name, e := range engines {
		ex[name] = e
	}
	res, err := sched.Run(g, s, ex, sched.RunOptions{})
	if err != nil {
		return 0, err
	}
	return res.Makespan, nil
}

// EnforcePriorities assigns minimal DAG-level priorities to requests whose
// applications left them unset (§7.2's priority enforcement).
func EnforcePriorities(g *RequestGraph, base uint16) { sched.EnforcePriorities(g, base) }

package main

import (
	"fmt"
	"math/rand"

	"tango/internal/core/probe"
	"tango/internal/packet"
	"tango/internal/switchsim"
	traffic "tango/internal/workload"
)

// dataplane_churn: the emulator's per-packet lookup / evict / promote path.
// A 40 000-packet Zipf trace over 4096 installed rules is replayed in
// 20 000-packet segments through Switch.SendFrameN on persistent, warmed
// 256-entry policy-cache switches; one op is one segment through one policy
// and a pass sends the whole trace through five policies in turn: FIFO
// (never evicts on traffic — the lookup-only baseline), LRU, LFU, and the
// two custom policies that still evict by O(n) scan. Indexing those moves this workload and no other,
// while FIFO shows whether plain lookup got slower.

const (
	churnCache    = 256
	churnRules    = 4096
	churnPackets  = 40000
	churnSegment  = 20000
	churnSkew     = 1.2
	churnPriority = 100
	fdrcWindow    = 4096
)

type churnPolicy struct {
	name   string
	policy switchsim.Policy
}

func churnPolicies() []churnPolicy {
	return []churnPolicy{
		{"fifo", switchsim.PolicyFIFO},
		{"lru", switchsim.PolicyLRU},
		{"lfu", switchsim.PolicyLFU},
		{"destagg", switchsim.PolicyDestAggregate()},
		{"fdrc", switchsim.PolicyFDRC(fdrcWindow)},
	}
}

// churnTrace draws the packet trace: Zipf popularity over the installed
// rules, with popularity rank decorrelated from flow ID (and so from install
// order) — otherwise FIFO wins by the accident that the hottest flows were
// installed first.
func churnTrace(seed int64, packets int) []uint32 {
	trace := traffic.Generate(traffic.Options{Kind: traffic.KindZipf, Flows: churnRules, Packets: packets, Skew: churnSkew, Seed: seed})
	perm := rand.New(rand.NewSource(seed + 1)).Perm(churnRules)
	for i, f := range trace {
		trace[i] = uint32(perm[f])
	}
	return trace
}

// churnFrames builds the decoded probe frame of every installed flow and
// returns them with the encoded length the switch charges per packet.
func churnFrames() ([]packet.Frame, int, error) {
	frames := make([]packet.Frame, churnRules)
	for id := range frames {
		packet.BuildProbeFrame(&frames[id], packet.ProbeSpec{FlowID: uint32(id)})
	}
	wire, err := packet.BuildProbe(packet.ProbeSpec{})
	return frames, len(wire), err
}

// churnSwitch builds one policy's switch with every rule installed.
func churnSwitch(p switchsim.Policy, seed int64) (*switchsim.Switch, error) {
	prof := switchsim.TestSwitch(churnCache, p)
	prof.SoftwareCapacity = 4 * churnRules
	sw := switchsim.New(prof, switchsim.WithSeed(seed))
	e := probe.NewEngine(probe.SimDevice{S: sw})
	for id := 0; id < churnRules; id++ {
		if err := e.Install(uint32(id), churnPriority); err != nil {
			return nil, fmt.Errorf("preload rule %d: %w", id, err)
		}
	}
	return sw, nil
}

// replay sends one trace segment through sw and returns its fast-path hits.
func replay(sw *switchsim.Switch, frames []packet.Frame, size int, segment []uint32) (hits uint64, err error) {
	before := sw.Stats()
	for _, f := range segment {
		if _, err := sw.SendFrameN(&frames[f], 1, size, 1); err != nil {
			return 0, err
		}
	}
	after := sw.Stats()
	return (after.FastHits + after.MidHits) - (before.FastHits + before.MidHits), nil
}

type dataplaneChurn struct {
	seed     int64
	m        *meter
	policies []churnPolicy
	switches []*switchsim.Switch
	trace    []uint32
	frames   []packet.Frame
	size     int

	// firstHits are each policy's fast-path hits on its first segment (the
	// warm-up pass), replayed on a fresh switch by finish.
	firstHits []uint64
}

func (w *dataplaneChurn) cycle() int { return len(w.policies) * (churnPackets / churnSegment) }

func (w *dataplaneChurn) setup(seed int64, m *meter, _ *tracer) error {
	w.seed, w.m = seed, m
	w.policies = churnPolicies()
	w.trace = churnTrace(seed, churnPackets)
	var err error
	if w.frames, w.size, err = churnFrames(); err != nil {
		return err
	}
	w.switches = make([]*switchsim.Switch, len(w.policies))
	for i, p := range w.policies {
		if w.switches[i], err = churnSwitch(p.policy, seed); err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
	}
	w.firstHits = make([]uint64, len(w.policies))
	return nil
}

func (w *dataplaneChurn) segment(i int) []uint32 {
	k := (i / len(w.policies)) % (churnPackets / churnSegment)
	return w.trace[k*churnSegment : (k+1)*churnSegment]
}

func (w *dataplaneChurn) op(i int) (float64, error) {
	p := i % len(w.policies)
	sw, seg := w.switches[p], w.segment(i)
	w.m.start()
	hits, err := replay(sw, w.frames, w.size, seg)
	w.m.stop()
	if err != nil {
		return 0, fmt.Errorf("%s: %w", w.policies[p].name, err)
	}
	if i < len(w.policies) {
		w.firstHits[p] = hits
	}
	if tcam, _, _ := sw.RuleCount(); tcam > churnCache {
		return churnSegment, fmt.Errorf("%s: %d rules in a %d-entry TCAM", w.policies[p].name, tcam, churnCache)
	}
	return churnSegment, nil
}

// finish replays each policy's first segment on a fresh switch: the same
// seed must give the same hits.
func (w *dataplaneChurn) finish() []error {
	var errs []error
	if w.firstHits == nil || w.firstHits[0] == 0 {
		return nil // set-up failed or no op ran
	}
	for p, pol := range w.policies {
		sw, err := churnSwitch(pol.policy, w.seed)
		if err == nil {
			var hits uint64
			if hits, err = replay(sw, w.frames, w.size, w.trace[:churnSegment]); err == nil && hits != w.firstHits[p] {
				err = fmt.Errorf("replay on a fresh switch hit %d times, the first pass %d", hits, w.firstHits[p])
			}
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", pol.name, err))
		}
	}
	return errs
}

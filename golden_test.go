package tango

import (
	"testing"
	"time"

	"tango/internal/conformance"
	"tango/internal/core/probe"
	"tango/internal/switchsim"
)

// TestInspectGolden pins what the switch sees during an inspection: virtual
// time spent under probing, flow-mods, packets, and the model that comes out.
// The values were recorded on the commit before the probe-frame cache was
// deleted (PR 18's parent). A host-time change on the inspection path —
// frames, keep-orders, flow-mod reuse, emulator scratch — must leave every
// one of them untouched; a change that means to alter what is probed
// re-records them and says so.
func TestInspectGolden(t *testing.T) {
	specs := conformance.GenerateSpecs(16, 1)
	// specs[0] leads with traffic, so Algorithm 2 reaches verifyRound;
	// specs[8] (priority, insertion) stays on the correlation round.
	if k := specs[0].Policy.Keys; len(k) < 2 || k[0].Attr != switchsim.AttrTraffic {
		t.Fatalf("specs[0] policy %v no longer leads with traffic", specs[0].Policy)
	}
	cases := []struct {
		profile  switchsim.Profile
		virtual  time.Duration
		flowMods uint64
		packets  uint64
		model    string
	}{
		{switchsim.OVS(), 31190459584, 9358, 8206,
			"switch OVS: m=4096 full=false levels=[{3ms:4096}] caching=microflow costs{add=52µs addNew=52µs shift=0s mod=55µs del=46µs}"},
		{switchsim.Switch1(), 55665132604820, 17550, 25237522,
			"switch Switch#1: m=4096 full=false levels=[{660µs:2054} {3.7ms:2045}] policy=insertion(keep-low) costs{add=421µs addNew=902µs shift=13.988µs mod=6.036ms del=2.01ms}"},
		{switchsim.Switch3(), 5473629209, 1905, 752,
			"switch Switch#3: m=369 full=true levels=[{500µs:369}] costs{add=599µs addNew=1.103ms shift=148.634µs mod=7.007ms del=2.513ms}"},
		{specs[0].Profile, 138560441017, 5795, 58436,
			"switch conf-00-cache-89: m=356 full=true levels=[{380µs:87} {3.94ms:273}] policy=traffic(keep-low),priority(keep-high),use_time(keep-high) costs{add=474µs addNew=674µs shift=9.835µs mod=2.578ms del=1.057ms}"},
		{specs[8].Profile, 171886330053, 2287, 66358,
			"switch conf-08-cache-70: m=280 full=true levels=[{620µs:68} {4.28ms:210}] policy=priority(keep-low),insertion(keep-low) costs{add=189µs addNew=394µs shift=14.378µs mod=4.838ms del=901µs}"},
	}
	const seed = 7
	for i, c := range cases {
		sw := switchsim.New(c.profile, switchsim.WithSeed(seed+int64(i)))
		t0 := sw.Now()
		m, err := Inspect(probe.SimDevice{S: sw}, InspectOptions{
			Name: c.profile.Name, Seed: seed + 101*int64(i+1), MaxRules: 4096,
		})
		if err != nil {
			t.Fatalf("%s: %v", c.profile.Name, err)
		}
		st := sw.Stats()
		if got := sw.Now().Sub(t0); got != c.virtual {
			t.Errorf("%s: virtual time %d, want %d", c.profile.Name, got, c.virtual)
		}
		if st.FlowMods != c.flowMods {
			t.Errorf("%s: flow-mods %d, want %d", c.profile.Name, st.FlowMods, c.flowMods)
		}
		if st.PacketsSeen != c.packets {
			t.Errorf("%s: packets %d, want %d", c.profile.Name, st.PacketsSeen, c.packets)
		}
		if got := m.String(); got != c.model {
			t.Errorf("%s: model\n got %q\nwant %q", c.profile.Name, got, c.model)
		}
	}
}

// TestInspectAllocBudget bounds what one inspection allocates, switch
// construction included, for every kind of switch in the benchmark's
// catalog at its 4,096-rule budget: the four vendor profiles and the
// policy-cache specs GenerateSpecs draws. An inspection allocates what its
// switch grows (rule slabs, the arena, the heaps, a microflow cache past its
// hint) and O(1) scratch per phase: the size probe's samples, one probe
// block and one cluster.Finder per policy probe, one op buffer for the cost
// fit. Switch3, the cheapest that runs sizing, the clear and the cost fit,
// allocates 41 times; OVS, whose 4,096 rules each cache a microflow, 99; the
// policy-cache specs 61–68. A slice per rule, per round or per permutation
// draw multiplies these. A per-flow frame cache is held to zero by the probe
// package's TestProbeAllocFree instead.
func TestInspectAllocBudget(t *testing.T) {
	type budget struct {
		profile switchsim.Profile
		max     float64
	}
	budgets := []budget{
		{switchsim.OVS(), 106},
		{switchsim.Switch1(), 104},
		{switchsim.Switch2(), 66},
		{switchsim.Switch3(), 46},
	}
	for _, s := range conformance.GenerateSpecs(14, 1) {
		if s.Profile.Kind == switchsim.ManagePolicyCache {
			budgets = append(budgets, budget{s.Profile, 74})
		}
	}
	for _, b := range budgets {
		n := testing.AllocsPerRun(2, func() {
			sw := switchsim.New(b.profile, switchsim.WithSeed(1))
			if _, err := Inspect(probe.SimDevice{S: sw}, InspectOptions{Seed: 1, MaxRules: 4096}); err != nil {
				t.Fatal(err)
			}
		})
		if n > b.max {
			t.Errorf("an inspection of %s allocates %v times, budget %v", b.profile.Name, n, b.max)
		}
	}
}

package tango

import (
	"runtime"
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
		{switchsim.Switch1(), 55524184913853, 17550, 25193250,
			"switch Switch#1: m=4096 full=false levels=[{660µs:2028} {3.7ms:2035}] policy=insertion(keep-low) costs{add=417µs addNew=898µs shift=13.516µs mod=6.057ms del=2.001ms}"},
		{switchsim.Switch3(), 5473629209, 1905, 752,
			"switch Switch#3: m=369 full=true levels=[{500µs:369}] costs{add=599µs addNew=1.103ms shift=148.634µs mod=7.007ms del=2.513ms}"},
		{specs[0].Profile, 131080694301, 5795, 56221,
			"switch conf-00-cache-89: m=356 full=true levels=[{380µs:87} {3.94ms:268}] policy=traffic(keep-low),priority(keep-high),use_time(keep-high) costs{add=474µs addNew=672µs shift=9.792µs mod=2.583ms del=1.053ms}"},
		{specs[8].Profile, 164440783076, 2287, 64263,
			"switch conf-08-cache-70: m=280 full=true levels=[{620µs:68} {4.28ms:203}] policy=priority(keep-low),insertion(keep-low) costs{add=190µs addNew=392µs shift=14.706µs mod=4.864ms del=899µs}"},
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
// switch grows (rule slabs, the heaps' position array, a table, index or
// microflow cache past its hint) and its results; the phases' working
// memory (the size probe's samples, the probe block, the cluster.Finder,
// the cost fit's buffers and the generator) is kept from one inspection to
// the next. Switch3, the cheapest that runs sizing, the clear and the cost
// fit, allocates 26 times; OVS, whose 4,096 rules each cache a microflow,
// 75; the policy-cache specs 36–42. A slice per rule, per round or per
// permutation draw multiplies these, and so does working memory made per
// call. A per-flow frame cache is held to zero by the probe package's
// TestProbeAllocFree instead.
func TestInspectAllocBudget(t *testing.T) {
	type budget struct {
		profile switchsim.Profile
		max     float64
	}
	budgets := []budget{
		{switchsim.OVS(), 82},
		{switchsim.Switch1(), 70},
		{switchsim.Switch2(), 45},
		{switchsim.Switch3(), 31},
	}
	for _, s := range conformance.GenerateSpecs(14, 1) {
		if s.Profile.Kind == switchsim.ManagePolicyCache {
			budgets = append(budgets, budget{s.Profile, 48})
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

// TestInspectByteBudget bounds the bytes one inspection allocates, switch
// construction included, on the switches TestInspectAllocBudget counts
// allocations on: within 5% of what was measured when the phases came to
// keep their working memory (a 240-byte rule and record in a slab that
// fills its 64 KiB; a 40-byte microflow slot, keyed by address word). A
// rule that grows a field, an arena that copies to grow, a map in the
// kernel cache's place or working memory made per call breaks it; OVS
// allocated 4,097 KiB before rules cost their bytes once, 2,110 before the
// working memory was kept. It also holds switchsim.New to what it
// allocated then: one generator, not a default one WithSeed replaces.
func TestInspectByteBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what escapes to the heap")
	}
	// KiB an inspection allocated when the budget was set, and bytes New
	// allocated then.
	type budget struct {
		inspectKiB float64
		newBytes   uint64
	}
	budgets := map[string]budget{
		"OVS":               {1837.1, 181040},
		"Switch#1":          {1503.1, 189474},
		"Switch#2":          {767.9, 90976},
		"Switch#3":          {163.8, 30816},
		"conf-00-cache-89":  {166.0, 28064},
		"conf-01-cache-57":  {95.3, 24480},
		"conf-02-cache-53":  {94.1, 23328},
		"conf-04-cache-60":  {95.5, 24608},
		"conf-05-cache-116": {179.4, 41504},
		"conf-06-cache-128": {180.4, 42272},
		"conf-08-cache-70":  {163.0, 25632},
		"conf-09-cache-106": {176.7, 39200},
		"conf-10-cache-74":  {163.7, 26016},
		"conf-12-cache-63":  {95.3, 24608},
		"conf-13-cache-111": {177.7, 39840},
	}
	profiles := []switchsim.Profile{switchsim.OVS(), switchsim.Switch1(), switchsim.Switch2(), switchsim.Switch3()}
	for _, s := range conformance.GenerateSpecs(14, 1) {
		if s.Profile.Kind == switchsim.ManagePolicyCache {
			profiles = append(profiles, s.Profile)
		}
	}
	if len(profiles) != len(budgets) {
		t.Fatalf("%d profiles for %d budgets", len(profiles), len(budgets))
	}
	for _, p := range profiles {
		b, ok := budgets[p.Name]
		if !ok {
			t.Fatalf("no budget for %s", p.Name)
		}
		inspect := bytesPerRun(3, func() {
			sw := switchsim.New(p, switchsim.WithSeed(1))
			if _, err := Inspect(probe.SimDevice{S: sw}, InspectOptions{Seed: 1, MaxRules: 4096}); err != nil {
				t.Fatal(err)
			}
		})
		if got := float64(inspect) / 1024; got > b.inspectKiB*1.05 {
			t.Errorf("an inspection of %s allocates %.1f KiB, budget %.1f KiB + 5%%", p.Name, got, b.inspectKiB)
		}
		// Amortized growth elsewhere in the process shows up as a byte or
		// two per call, so New may exceed its old bytes by a few.
		built := bytesPerRun(20, func() { switchsim.New(p, switchsim.WithSeed(1)) })
		if built > b.newBytes+16 {
			t.Errorf("switchsim.New(%s) allocates %d bytes, %d before", p.Name, built, b.newBytes)
		}
	}
}

// raceEnabled is set by race_test.go when the race detector is compiled in.
var raceEnabled bool

// bytesPerRun reports the heap bytes one call of f allocates: the fewest of
// three batches of runs calls, after a first call that sets up what only
// the first does. The fewest filters out what other goroutines allocated
// meanwhile.
func bytesPerRun(runs int, f func()) uint64 {
	f()
	var least uint64
	for batch := 0; batch < 3; batch++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		if n := (after.TotalAlloc - before.TotalAlloc) / uint64(runs); batch == 0 || n < least {
			least = n
		}
	}
	return least
}

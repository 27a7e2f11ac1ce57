package infer

import (
	"testing"

	"tango/internal/switchsim"
)

// TestProbeSizesGolden pins Algorithm 1 end to end: with the switch and the
// probe RNG both seeded, the inferred layer sizes are exact integers, not
// tolerance bands. These values were captured from a known-good run; a
// change means size inference (clustering, sampling, or the MLE) changed
// behaviour, not just noise.
func TestProbeSizesGolden(t *testing.T) {
	// bounded gives the test-switch hierarchy a small software table so the
	// doubling phase terminates on a genuine table-full in milliseconds.
	bounded := func(cache int, pol switchsim.Policy, soft int) switchsim.Profile {
		p := switchsim.TestSwitch(cache, pol)
		p.SoftwareCapacity = soft
		return p
	}
	cases := []struct {
		name      string
		profile   switchsim.Profile
		probeSeed int64
		want      []int
	}{
		// One TCAM layer, hard rejection at 600: recovered exactly.
		{"switch2-tcam-600", switchsim.Switch2().WithTCAMCapacity(600), 41, []int{600}},
		// Cache + software hierarchies: both layer estimates pinned as-is.
		{"cache-128-fifo", bounded(128, switchsim.PolicyFIFO, 384), 42, []int{130, 370}},
		{"cache-96-lru", bounded(96, switchsim.PolicyLRU, 288), 43, []int{95, 292}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			e, _ := engineFor(c.profile, switchsim.WithSeed(1))
			res, err := ProbeSizes(e, SizeOptions{Seed: c.probeSeed})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Levels) != len(c.want) {
				t.Fatalf("found %d levels, want %d (%+v)", len(res.Levels), len(c.want), res.Levels)
			}
			for i, want := range c.want {
				if res.Levels[i].Size != want {
					t.Errorf("level %d size = %d, want exactly %d", i, res.Levels[i].Size, want)
				}
			}
		})
	}
}

package infer

import (
	"math/rand"
	"slices"
	"testing"
)

// TestReseededGeneratorMatchesFresh: a kept generator reseeded by a phase
// draws what a generator made from that seed draws, whatever it drew before.
func TestReseededGeneratorMatchesFresh(t *testing.T) {
	var w scratch
	for _, seed := range []int64{0, 1, 2, 42, -7, 1 << 40} {
		got := w.seeded(seed)
		want := rand.New(rand.NewSource(seed))
		if !slices.Equal(got.Perm(300), want.Perm(300)) {
			t.Fatalf("seed %d: Perm differs", seed)
		}
		for i := 0; i < 1000; i++ {
			if a, b := got.Intn(i+1), want.Intn(i+1); a != b {
				t.Fatalf("seed %d, draw %d: %d, want %d", seed, i, a, b)
			}
		}
	}
}

// TestReleaseBoundsScratch: release keeps every buffer an inspection at the
// default budget fills — so a 53-entry spec after a 4,096-rule switch does
// not shrink them — and drops each one past it, the finder with the inputs
// it clustered.
func TestReleaseBoundsScratch(t *testing.T) {
	fill := func(rules, flows, samples int) *scratch {
		w := &scratch{}
		w.rtts, w.perm = resize(w.rtts, rules), resize(w.perm, rules)
		if _, err := w.finder.Find(w.rtts); err != nil {
			t.Fatal(err)
		}
		if _, err := w.resetBlock(flows).finder.Find(w.block.rtts); err != nil {
			t.Fatal(err)
		}
		w.ops, w.xy = resize(w.ops, 2*samples), resize(w.xy, 2*samples)
		return w
	}

	DrainScratch()
	fill(keepRules, keepFlows, defaultCostSamples).release()
	if err := KeptScratchWithin(keepRules); err != nil {
		t.Fatal(err)
	}
	w := takeScratch()
	if cap(w.rtts) != keepRules || cap(w.prios) != keepFlows || cap(w.ops) != keepOps {
		t.Errorf("buffers at the bound were dropped: %d samples, %d flows, %d ops", cap(w.rtts), cap(w.prios), cap(w.ops))
	}

	for _, over := range []struct{ rules, flows, samples int }{
		{keepRules + 1, 64, 32},
		{64, keepFlows + 1, 32},
		{64, 64, defaultCostSamples + 1},
	} {
		DrainScratch()
		fill(over.rules, over.flows, over.samples).release()
		if err := KeptScratchWithin(keepRules); err != nil {
			t.Errorf("%+v: %v", over, err)
		}
	}
}

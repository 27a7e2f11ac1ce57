package infer

import (
	"math/rand"

	"tango/internal/cluster"
	"tango/internal/core/pattern"
)

// scratch is the working memory of the inference phases, kept from one
// call to the next (DESIGN §14.1): a fleet re-inspects its switches round
// after round, and an inspection's buffers are no part of the switch it
// probes. ProbeSizes, ProbePolicy and MeasureCosts each take it at entry
// and give it back in a defer, so code that calls a phase alone shares it
// with Inspect. Nothing a phase returns aliases it.
type scratch struct {
	// rng is reseeded by every phase that draws: a reseeded generator draws
	// exactly what rand.New(rand.NewSource(seed)) would.
	rng    *rand.Rand
	finder cluster.Finder
	// rtts and perm are ProbeSizes' stage-2 samples and probe order.
	rtts []float64
	perm []int
	// ints, floats and prios are the slabs ProbePolicy's block is carved
	// from, and block the block.
	ints   []int
	floats []float64
	prios  []uint16
	block  probeBlock
	// ops and xy are MeasureCosts' op and fit buffers.
	ops []pattern.Op
	xy  []float64
}

// freeScratch holds the idle working memory: a leaky buffer, as
// sched.freeStates is, which a GC does not empty as it does a sync.Pool.
// One slot, because an inspection runs its phases one at a time; a phase
// that overlaps another finds it empty, makes its own, and drops it at the
// end when the slot is full again.
var freeScratch = make(chan *scratch, 1)

// A kept buffer is bounded by what an inspection at Inspect's default size
// budget needs, not by the last call, which on a mixed catalog would drop
// a 4,096-sample buffer for a 53-entry spec and regrow it for the next
// switch. A policy block probes a cache of at most keepRules entries with
// two flows per entry.
const (
	keepRules = defaultMaxRules
	keepFlows = 2 * keepRules
	keepOps   = 2 * defaultCostSamples
)

func takeScratch() *scratch {
	select {
	case w := <-freeScratch:
		return w
	default:
		return &scratch{}
	}
}

// seeded returns w's generator seeded with seed, made on first use.
func (w *scratch) seeded(seed int64) *rand.Rand {
	if w.rng == nil {
		w.rng = rand.New(rand.NewSource(seed))
	} else {
		w.rng.Seed(seed)
	}
	return w.rng
}

// release gives w back to the free list, first dropping every buffer
// larger than the bound. The finder's buffers are sized by the largest
// input it clustered, the size phase's samples or a policy block's, so it
// goes with either.
func (w *scratch) release() {
	if cap(w.rtts) > keepRules {
		w.rtts, w.perm, w.finder = nil, nil, cluster.Finder{}
	}
	if cap(w.prios) > keepFlows {
		w.ints, w.floats, w.prios, w.block, w.finder = nil, nil, nil, probeBlock{}, cluster.Finder{}
	}
	if cap(w.ops) > keepOps {
		w.ops, w.xy = nil, nil
	}
	select {
	case freeScratch <- w:
	default:
	}
}

// resize returns buf with n elements, reallocating only when its capacity
// falls short. The elements keep whatever they held: every caller writes
// each one before reading it.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

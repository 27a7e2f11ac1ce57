package infer

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"tango/internal/cluster"
	"tango/internal/core/probe"
	"tango/internal/stats"
	"tango/internal/switchsim"
)

// PolicyOptions tunes ProbePolicy.
type PolicyOptions struct {
	// CacheSize is the inferred size of the cache layer under test (the
	// fastest level from ProbeSizes). Required.
	CacheSize int
	// Seed fixes permutation generation.
	Seed int64
}

const (
	// policyBasePriority anchors the per-flow priority permutation, leaving
	// room below for the permutation spread.
	policyBasePriority = 5000
	// trafficGap is the spacing between adjacent initialized traffic counts.
	// MONOTONE only requires differences "sufficiently large (greater than
	// 2)".
	trafficGap = 3
	// corrThreshold is the minimum |correlation| for an attribute to be
	// accepted as a sort key.
	corrThreshold = 0.4
	// maxPolicyRounds bounds the LEX recursion: one round per attribute.
	maxPolicyRounds = 4
	// policyFlowIDBase offsets probe flow IDs; each round uses a fresh block.
	policyFlowIDBase = 1 << 20
)

// trafficTarget is the packet count Algorithm 2 initializes the flow of
// traffic rank r to: counts spaced trafficGap apart, the lowest above 0.
func trafficTarget(r int) int { return trafficGap * (r + 1) }

// Round records the diagnostics of one recursion round of Algorithm 2.
type Round struct {
	// Correlations maps attribute → Pearson correlation between the
	// attribute's initialized values and observed cache residency.
	Correlations map[switchsim.Attribute]float64
	// Chosen is the accepted sort key, if any.
	Chosen switchsim.SortKey
	// Accepted reports whether a key passed the threshold this round.
	Accepted bool
	// CachedCount is how many probe flows were observed in the cache.
	CachedCount int
}

// PolicyResult is the outcome of Algorithm 2.
type PolicyResult struct {
	// Policy is the inferred lexicographic cache policy.
	Policy switchsim.Policy
	// Rounds holds per-round diagnostics.
	Rounds []Round
	// Inconclusive is set when no attribute correlated with residency —
	// e.g. the cache admitted everything probed (an OVS-style microflow
	// cache) or residency looked random.
	Inconclusive bool
}

// ErrBadCacheSize rejects non-positive cache sizes.
var ErrBadCacheSize = errors.New("infer: cache size must be positive")

// serialAttrs are the attributes with unique per-flow values; once one is
// chosen the ordering is total and the recursion stops (line 27 of
// Algorithm 2).
var serialAttrs = map[switchsim.Attribute]bool{
	switchsim.AttrInsertion: true,
	switchsim.AttrUseTime:   true,
}

// ProbePolicy runs Algorithm 2 (Policy Probing): it installs 2×cacheSize
// flows whose attribute values are pairwise-decorrelated permutations,
// observes which flows the cache retained via RTT classification, picks the
// attribute correlating most strongly with residency, and recurses with
// that attribute held constant until a serial attribute terminates the
// lexicographic ordering.
func ProbePolicy(e *probe.Engine, opts PolicyOptions) (*PolicyResult, error) {
	if opts.CacheSize <= 0 {
		return nil, ErrBadCacheSize
	}
	w := takeScratch()
	defer w.release()
	rng := w.seeded(opts.Seed)
	res := &PolicyResult{
		Policy: switchsim.Policy{Keys: make([]switchsim.SortKey, 0, maxPolicyRounds)},
		Rounds: make([]Round, 0, maxPolicyRounds),
	}
	b := w.resetBlock(2 * opts.CacheSize)

	for round := 0; round < maxPolicyRounds; round++ {
		base := policyFlowIDBase + uint32(round)*uint32(16*opts.CacheSize+8192)
		var r Round
		var err error
		if b.fixed[switchsim.AttrTraffic] {
			// Once traffic count is a fixed (constant) prefix key, every
			// measurement packet perturbs exactly that key: probing a
			// non-resident bumps its count above the field and promotes it,
			// evicting a resident before that resident is measured. The
			// correlation round would then be scored against corrupted
			// membership, so these rounds use hypothesis verification
			// instead: measure in each candidate ordering's keep-order —
			// under the true ordering residents are measured first as pure
			// cache hits (which never change membership) and non-residents
			// afterwards can no longer out-rank them, so only the correct
			// hypothesis produces a clean fast-then-slow step.
			r, err = verifyRound(e, opts, rng, base, b)
		} else {
			r, err = probeRound(e, rng, base, b)
		}
		if err != nil {
			return nil, err
		}
		res.Rounds = append(res.Rounds, r)
		if !r.Accepted {
			res.Inconclusive = len(res.Policy.Keys) == 0
			return res, nil
		}
		res.Policy.Keys = append(res.Policy.Keys, r.Chosen)
		b.fixed[r.Chosen.Attr] = true
		if serialAttrs[r.Chosen.Attr] {
			return res, nil
		}
		if len(res.Policy.Keys) == len(switchsim.Attributes) {
			return res, nil
		}
	}
	return res, nil
}

// numAttrs is the number of policy attributes, which index probeBlock's
// per-attribute arrays.
const numAttrs = int(switchsim.AttrPriority) + 1

// probeBlock is one initialised block of Algorithm 2's probe flows — the
// 2×CacheSize rules at base, flow i holding value rank perm[attr][i] of each
// attribute — and the working memory of the ProbePolicy call that owns it.
// Every block of a call has the same flows, so a call carves one probeBlock
// from its scratch and every round, hypothesis and draw re-initialises it.
type probeBlock struct {
	base       uint32
	priorities []uint16
	// perm holds every attribute's value permutation over the flows.
	// Insertion is the identity by construction: flows install in index
	// order.
	perm [numAttrs][]int
	// fperm is perm as floats, for the decorrelation test and the
	// residency correlations.
	fperm [numAttrs][]float64
	// fixed marks the attributes earlier rounds accepted, held constant.
	fixed [numAttrs]bool
	// order is a flow order (an inverse permutation), rtts the block's
	// measured RTTs and cached its residency vector.
	order        []int
	rtts, cached []float64
	finder       *cluster.Finder
}

// resetBlock returns w's block, reset to s flows with no attribute fixed:
// its integer and its float vectors are carved out of one slab each.
func (w *scratch) resetBlock(s int) *probeBlock {
	w.ints = resize(w.ints, (numAttrs+1)*s)
	w.floats = resize(w.floats, (numAttrs+2)*s)
	w.prios = resize(w.prios, s)
	ints, floats := w.ints, w.floats
	carve := func() ([]int, []float64) {
		i, f := ints[:s:s], floats[:s:s]
		ints, floats = ints[s:], floats[s:]
		return i, f
	}
	b := &w.block
	*b = probeBlock{priorities: w.prios, finder: &w.finder}
	for a := range b.perm {
		b.perm[a], b.fperm[a] = carve()
	}
	b.order, b.rtts = carve()
	b.cached = floats[:s:s]
	for i := range b.perm[switchsim.AttrInsertion] {
		b.perm[switchsim.AttrInsertion][i] = i
		b.fperm[switchsim.AttrInsertion][i] = float64(i)
	}
	return b
}

// initBlock is Algorithm 2's initialisation, shared by the correlation round
// and hypothesis verification: install the block's flows at base, then drive
// each free attribute to its permuted value. Fixed attributes are held
// constant.
func initBlock(e *probe.Engine, rng *rand.Rand, base uint32, b *probeBlock) error {
	b.base = base
	// Pairwise-decorrelated value permutations for the free attributes.
	// Insertion order is the identity by construction; priority, traffic
	// and use-order get independent random permutations re-drawn until no
	// pair correlates above 0.15 — ensuring "no subset of flows satisfies
	// the half-above/half-below condition for more than one attribute".
	b.decorrelatedPerms(rng)
	prioPerm := b.perm[switchsim.AttrPriority]
	for i := range b.priorities {
		b.priorities[i] = policyBasePriority
		if !b.fixed[switchsim.AttrPriority] {
			b.priorities[i] += uint16(prioPerm[i])
		}
	}

	// Install phase (insertion attribute = install order).
	for i, p := range b.priorities {
		if err := e.Install(base+uint32(i), p); err != nil {
			return fmt.Errorf("infer: policy probe install %d: %w", i, err)
		}
	}

	// Traffic phase: counts spaced trafficGap apart, sent in ascending
	// target order so the cache converges to the top-traffic flows under
	// frequency policies. Skipped when traffic is held constant. Bursts go
	// through the engine's batched traffic path, which keeps the quadratic
	// total packet count affordable even for multi-thousand entry caches.
	if !b.fixed[switchsim.AttrTraffic] {
		trafPerm := b.perm[switchsim.AttrTraffic]
		for _, i := range inversePerm(b.order, trafPerm) {
			if err := e.SendTraffic(base+uint32(i), trafficTarget(trafPerm[i])); err != nil {
				return err
			}
		}
	}

	// Use-time phase: one packet per flow in usePerm order; the flow with
	// usePerm rank s-1 ends up most recently used.
	for _, i := range inversePerm(b.order, b.perm[switchsim.AttrUseTime]) {
		if _, _, err := e.Probe(base + uint32(i)); err != nil {
			return err
		}
	}
	return nil
}

// clear removes the block's probe rules so the next block starts from a
// clean cache.
func (b *probeBlock) clear(e *probe.Engine) {
	for i, p := range b.priorities {
		_ = e.Delete(b.base+uint32(i), p)
	}
}

// keepOrder lists the block's flows in the order a cache ordered by hyp
// would keep them, best-kept first, in b.order. The attribute's values are a
// permutation of the flows, so sorting the flows by value is inverting it:
// ascending for keep-low, reversed for keep-high.
func (b *probeBlock) keepOrder(hyp switchsim.SortKey) []int {
	order := inversePerm(b.order, b.perm[hyp.Attr])
	if hyp.HighIsBetter {
		slices.Reverse(order)
	}
	return order
}

// inversePerm writes the inverse of a permutation of [0, len(perm)) into
// out, which has perm's length, and returns it: out[perm[i]] = i. Read as a
// list it is the indices sorted ascending by perm — which is how Algorithm 2
// orders flows by an attribute, every attribute's values being a
// permutation of the flows.
func inversePerm(out, perm []int) []int {
	for i, r := range perm {
		out[r] = i
	}
	return out
}

// probeRound performs one initialization + measurement + correlation round.
func probeRound(e *probe.Engine, rng *rand.Rand, flowBase uint32, b *probeBlock) (Round, error) {
	s := len(b.priorities)
	if err := initBlock(e, rng, flowBase, b); err != nil {
		return Round{}, err
	}

	// Measurement phase: most-recently-used first, so each flow's
	// classification reflects the pre-measurement cache state.
	rtts := b.rtts
	orderByUse := inversePerm(b.order, b.perm[switchsim.AttrUseTime])
	for rank := s - 1; rank >= 0; rank-- {
		i := orderByUse[rank]
		rtt, _, err := e.Probe(flowBase + uint32(i))
		if err != nil {
			return Round{}, err
		}
		rtts[i] = float64(rtt)
	}

	// Classify: the fastest RTT cluster is the cache under test.
	cl, err := b.finder.Find(rtts)
	if err != nil {
		return Round{}, err
	}
	round := Round{Correlations: map[switchsim.Attribute]float64{}}
	cached := b.cached
	clear(cached)
	if len(cl.Clusters) >= 2 {
		for i, a := range cl.Assignment {
			if a == 0 {
				cached[i] = 1
				round.CachedCount++
			}
		}
	} else {
		// One tier: nothing to discriminate (e.g. every probed flow was
		// admitted — microflow caching). Leave `cached` all-zero so no
		// attribute correlates.
		round.CachedCount = s
	}

	// Correlate each free attribute's value vector with residency.
	best := switchsim.SortKey{}
	bestCorr := 0.0
	for _, attr := range switchsim.Attributes {
		if b.fixed[attr] {
			continue
		}
		r, err := stats.Pearson(b.fperm[attr], cached)
		if err != nil {
			return Round{}, err
		}
		round.Correlations[attr] = r
		if math.Abs(r) > math.Abs(bestCorr) {
			bestCorr = r
			best = switchsim.SortKey{Attr: attr, HighIsBetter: r > 0}
		}
	}
	if math.Abs(bestCorr) >= corrThreshold {
		round.Chosen = best
		round.Accepted = true
	}

	b.clear(e)
	return round, nil
}

// verifyRound tests every remaining (attribute, direction) hypothesis by
// re-initializing the probe flows and measuring them in the hypothesis's
// keep-order. The accuracy of the predicted fast/slow step scores the
// hypothesis; the best one wins if it clears the acceptance threshold.
func verifyRound(e *probe.Engine, opts PolicyOptions, rng *rand.Rand, flowBase uint32, b *probeBlock) (Round, error) {
	s := 2 * opts.CacheSize
	n := opts.CacheSize
	round := Round{Correlations: map[switchsim.Attribute]float64{}}
	best := switchsim.SortKey{}
	bestScore := -1.0
	sub := uint32(0)
	for _, attr := range switchsim.Attributes {
		if b.fixed[attr] {
			continue
		}
		for _, high := range [...]bool{true, false} {
			base := flowBase + sub*uint32(2*s+256)
			sub++
			score, err := verifyHypothesis(e, n, rng, base, b,
				switchsim.SortKey{Attr: attr, HighIsBetter: high})
			if err != nil {
				return Round{}, err
			}
			// Record the better-direction score per attribute, signed by
			// direction so diagnostics read like a correlation.
			signed := score
			if !high {
				signed = -score
			}
			if abs := score; abs > absFloat(round.Correlations[attr]) {
				round.Correlations[attr] = signed
			}
			if score > bestScore {
				bestScore = score
				best = switchsim.SortKey{Attr: attr, HighIsBetter: high}
			}
		}
	}
	round.CachedCount = n
	// A correct hypothesis yields a near-perfect step; anything close to
	// coin-flip accuracy means no remaining attribute explains residency.
	if bestScore >= 0.8 {
		round.Chosen = best
		round.Accepted = true
	}
	return round, nil
}

func absFloat(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// verifyHypothesis initializes one fresh flow block (fixed attributes held
// constant, free attributes decorrelated as in the correlation round),
// measures the flows in the hypothesis keep-order, and returns the fraction
// of flows whose observed tier matches the hypothesis's prediction: the n
// best-kept flows fast, the rest slow.
func verifyHypothesis(e *probe.Engine, n int, rng *rand.Rand, flowBase uint32, b *probeBlock, hyp switchsim.SortKey) (float64, error) {
	if err := initBlock(e, rng, flowBase, b); err != nil {
		return 0, err
	}

	order := b.keepOrder(hyp)
	rtts := b.rtts
	for _, i := range order {
		rtt, _, err := e.Probe(flowBase + uint32(i))
		if err != nil {
			return 0, err
		}
		rtts[i] = float64(rtt)
	}
	b.clear(e)

	cl, err := b.finder.Find(rtts)
	if err != nil {
		return 0, err
	}
	if len(cl.Clusters) < 2 {
		return 0, nil // indistinguishable tiers: hypothesis unverifiable
	}
	correct := 0
	for rank, i := range order {
		predictedFast := rank < n
		observedFast := cl.Assignment[i] == 0
		if predictedFast == observedFast {
			correct++
		}
	}
	return float64(correct) / float64(len(order)), nil
}

// decorrelatedPerms redraws the block's priority, traffic and use-time
// permutations, and their float copies, so that their pairwise correlations
// (including with the identity, the insertion order) stay below 0.15. Each
// attempt draws one permutation in place with drawPermInto, which consumes
// rng exactly as rng.Perm would.
func (b *probeBlock) decorrelatedPerms(rng *rand.Rand) {
	identity := b.fperm[switchsim.AttrInsertion]
	draw := func(attr switchsim.Attribute, existing ...switchsim.Attribute) {
		p, pf := b.perm[attr], b.fperm[attr]
		for attempt := 0; attempt < 200; attempt++ {
			drawPermInto(rng, p, pf)
			ok := true
			if r, _ := stats.Pearson(identity, pf); math.Abs(r) > 0.15 {
				ok = false
			}
			for _, ex := range existing {
				if r, _ := stats.Pearson(b.fperm[ex], pf); math.Abs(r) > 0.15 {
					ok = false
					break
				}
			}
			if ok {
				return
			}
		}
		// Statistically unreachable for s ≥ 16; fall back to the next draw.
		drawPermInto(rng, p, pf)
	}
	draw(switchsim.AttrPriority)
	draw(switchsim.AttrTraffic, switchsim.AttrPriority)
	draw(switchsim.AttrUseTime, switchsim.AttrPriority, switchsim.AttrTraffic)
}

// drawPermInto fills p with a pseudo-random permutation by permInto and pf
// with the same values as floats.
func drawPermInto(rng *rand.Rand, p []int, pf []float64) {
	permInto(rng, p)
	for i, v := range p {
		pf[i] = float64(v)
	}
}

// permInto fills p with a pseudo-random permutation of [0, len(p)). It makes
// exactly rand.Perm's draws — one Intn(i+1) per element, in order — so p is
// what rng.Perm(len(p)) would have returned and rng is left where rng.Perm
// would have left it.
func permInto(rng *rand.Rand, p []int) {
	for i := range p {
		j := rng.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
}

// InitPattern is the post-initialization attribute state Algorithm 2 sets
// up — what Figure 6 of the paper visualises for a cache of size 100.
// Index i is the i-th installed flow.
type InitPattern struct {
	Insertion []int // installation order (identity)
	Use       []int // recency rank after the use-time pass
	Priority  []int // priority permutation value
	Traffic   []int // initialized packet count
}

// InitializationPattern returns the attribute initialization the policy
// probe would use for the given cache size and seed, for inspection and
// plotting without touching a switch. The pattern keeps its block, so the
// block comes from a scratch of its own.
func InitializationPattern(cacheSize int, seed int64) InitPattern {
	s := 2 * cacheSize
	rng := rand.New(rand.NewSource(seed))
	b := new(scratch).resetBlock(s)
	b.decorrelatedPerms(rng)
	p := InitPattern{
		Insertion: b.perm[switchsim.AttrInsertion],
		Use:       b.perm[switchsim.AttrUseTime],
		Priority:  b.perm[switchsim.AttrPriority],
		Traffic:   make([]int, s),
	}
	for i, r := range b.perm[switchsim.AttrTraffic] {
		p.Traffic[i] = trafficTarget(r)
	}
	return p
}

// DetectMicroflowCaching reports whether the switch exhibits traffic-driven
// exact-match caching (the OVS behaviour of Figure 2(a)): a freshly
// installed flow's first packet is markedly slower than its second, because
// the first packet takes the user-space slow path and installs the kernel
// microflow entry. Several fresh flows are sampled and medians compared so
// a single jittery RTT draw cannot flip the verdict. The median
// first-to-second RTT ratio is returned for diagnostics.
func DetectMicroflowCaching(e *probe.Engine, flowIDBase uint32, priority uint16) (bool, float64, error) {
	const samples = 7
	firsts := make([]float64, 0, samples)
	seconds := make([]float64, 0, samples)
	for i := uint32(0); i < samples; i++ {
		id := flowIDBase + i
		if err := e.Install(id, priority); err != nil {
			return false, 0, err
		}
		first, _, err := e.Probe(id)
		if err != nil {
			return false, 0, err
		}
		second, _, err := e.Probe(id)
		if err != nil {
			return false, 0, err
		}
		_ = e.Delete(id, priority)
		firsts = append(firsts, float64(first))
		seconds = append(seconds, float64(second))
	}
	mf, err := stats.Median(firsts)
	if err != nil {
		return false, 0, err
	}
	ms, err := stats.Median(seconds)
	if err != nil || ms == 0 {
		return false, 0, err
	}
	ratio := mf / ms
	return ratio > cluster.StepRatio, ratio, nil
}

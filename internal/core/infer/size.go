// Package infer implements Tango's switch inference engine (§5): flow-table
// size probing (Algorithm 1), cache-replacement policy probing
// (Algorithm 2), and control-channel cost fitting. All inference works
// purely through the probing engine's Device interface — standard OpenFlow
// commands plus data traffic — never through privileged knowledge of the
// switch, which is the paper's core premise.
package infer

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"tango/internal/cluster"
	"tango/internal/core/probe"
	"tango/internal/stats"
	"tango/internal/switchsim"
)

// SizeOptions tunes ProbeSizes. The zero value selects sensible defaults.
type SizeOptions struct {
	// Priority used for every probe rule; one shared priority avoids
	// confounding the measurements with TCAM shift costs. Zero means 1000.
	Priority uint16
	// MaxRules caps the doubling phase. Software tables are "virtually
	// unlimited", so a switch that never rejects would otherwise absorb an
	// unbounded probing budget; reaching the cap is reported via
	// SizeResult.CacheFull=false. Zero means 16384.
	MaxRules int
	// Trials fixes k, the number of sampling trials per cache level. Zero
	// stops a level at the first trial boundary past 64 trials where its
	// 95% interval's half-width is within 4% of the estimate, or
	// where max(6×m, 3000) probe packets have been spent on it, whichever
	// comes first. The budget alone puts the standard error within the
	// paper's 5%-of-actual accuracy bound for level fractions down to ~15%
	// of m; the interval ends a level sooner once it is measured well.
	Trials int
	// Seed fixes the sampling RNG.
	Seed int64
	// FlowIDBase offsets probe flow IDs so repeated inferences against one
	// switch use fresh flows.
	FlowIDBase uint32
}

func (o SizeOptions) withDefaults() SizeOptions {
	if o.Priority == 0 {
		o.Priority = 1000
	}
	if o.MaxRules == 0 {
		o.MaxRules = defaultMaxRules
	}
	return o
}

// defaultMaxRules is SizeOptions.MaxRules' default.
const defaultMaxRules = 16384

// LevelEstimate describes one inferred flow-table layer.
type LevelEstimate struct {
	// MeanRTT is the layer's mean observed round-trip time.
	MeanRTT time.Duration
	// Size is the estimated number of entries resident in the layer, from
	// the negative-binomial sampling experiment.
	Size int
	// Census is the number of installed rules whose stage-2 RTT fell in
	// this layer's cluster — an exact membership count at probe time and
	// usually the tighter estimate. The ablation benchmarks compare the
	// two estimators.
	Census int
	// Lo and Hi bound Size's 95% interval, m·p̂'s Fisher interval rounded
	// outwards. A single-tier result is [m, m]: nothing was sampled.
	Lo, Hi int
}

// SizeResult is the outcome of Algorithm 1.
type SizeResult struct {
	// Levels are the inferred layers, fastest first.
	Levels []LevelEstimate
	// RulesInstalled is m, the number of probe rules installed.
	RulesInstalled int
	// ProbesSent counts data-plane packets used.
	ProbesSent int
	// CacheFull reports whether the switch rejected an installation (true)
	// or the MaxRules budget stopped the doubling (false). When false the
	// deepest layer's size is a lower bound, not an estimate.
	CacheFull bool
	// Clusters are the raw RTT tiers found.
	Clusters []cluster.Cluster
}

// ErrNoRules is returned when not even one rule could be installed.
var ErrNoRules = errors.New("infer: could not install any rules")

// ProbeSizes runs Algorithm 1 (Size Probing) against the engine's device:
//
//  1. Double the number of installed rules (sending one matching packet per
//     rule so traffic-driven caches allocate every slot) until the switch
//     rejects an installation or the budget is exhausted.
//  2. Measure one RTT per installed rule and cluster the samples; each
//     cluster is one flow-table layer.
//  3. For every layer, estimate its size with the negative-binomial
//     sampling experiment: repeatedly pick uniform random rules and count
//     consecutive picks whose RTT stays inside the layer's cluster; the MLE
//     p̂ = Σx/(k+Σx) gives the layer's fraction of the m installed rules.
//
// The procedure is asymptotically optimal: O(n) rule installations in
// O(log n) doubling rounds and O(n) probe packets (§5.2).
func ProbeSizes(e *probe.Engine, opts SizeOptions) (*SizeResult, error) {
	return probeSizes(e, opts, stopWhenTight)
}

// probeSizes is ProbeSizes with the rule that ends an adaptive level's
// sampling (SizeOptions.Trials = 0) passed in.
func probeSizes(e *probe.Engine, opts SizeOptions, stop stopRule) (*SizeResult, error) {
	opts = opts.withDefaults()
	w := takeScratch()
	defer w.release()
	rng := w.seeded(opts.Seed)
	res := &SizeResult{}
	tr := e.Tracer()
	sizeStart := e.Device().Now()

	// Stage 1: doubling installation. On every device each rule is installed
	// and sent its allocation packet, so a traffic-driven cache places it,
	// before the next rule is installed. Batching a round's installs ahead
	// of its packets changes what Algorithm 1 concludes (DESIGN §13), and one
	// order is what lets a wire run on the switch's virtual clock reproduce
	// the emulator's exactly. Measurement probes (stages 2 and 3) are
	// strictly serial too: each RTT classifies a rule into a latency tier,
	// and pipelining them would fold queueing delay into the very signal
	// being clustered.
	installed := 0
	for target := 1; !res.CacheFull && installed < opts.MaxRules; target *= 2 {
		if target > opts.MaxRules {
			target = opts.MaxRules
		}
		roundStart := e.Device().Now()
		for i := installed; i < target; i++ {
			if err := e.Install(opts.FlowIDBase+uint32(i), opts.Priority); err != nil {
				// Only a genuine capacity rejection terminates the doubling;
				// anything else (channel fault, exhausted retries) is a real
				// failure the caller must see.
				if !errors.Is(err, switchsim.ErrTableFull) {
					return nil, fmt.Errorf("infer: install rule %d: %w", i, err)
				}
				res.CacheFull = true
				break
			}
			installed++
			if _, _, err := e.Probe(opts.FlowIDBase + uint32(i)); err != nil {
				return nil, err
			}
			res.ProbesSent++
		}
		if tr != nil {
			tr.Record("probe.round", "", roundStart, e.Device().Now().Sub(roundStart),
				map[string]any{"target": target, "installed": installed, "full": res.CacheFull})
		}
	}
	if installed == 0 {
		return nil, ErrNoRules
	}
	m := installed
	res.RulesInstalled = m

	// Stage 2: one RTT sample per rule, in random order, then cluster. The
	// tiers are copied out of the finder, which the next phase reuses.
	w.rtts, w.perm = resize(w.rtts, m), resize(w.perm, m)
	rtts := w.rtts
	permInto(rng, w.perm)
	for _, i := range w.perm {
		rtt, _, err := e.Probe(opts.FlowIDBase + uint32(i))
		if err != nil {
			return nil, err
		}
		res.ProbesSent++
		rtts[i] = float64(rtt)
	}
	cl, err := w.finder.Find(rtts)
	if err != nil {
		return nil, err
	}
	clusters := slices.Clone(cl.Clusters)
	res.Clusters = clusters
	res.Levels = make([]LevelEstimate, 0, len(clusters))

	// With a single tier everything fits in one layer and the estimate is m
	// itself (sampling would degenerate to p̂→1 with capped runs), so the
	// sampling stage — thousands of probes whose outcome is ignored — is
	// skipped entirely.
	if len(clusters) == 1 {
		res.Levels = append(res.Levels, LevelEstimate{
			MeanRTT: time.Duration(clusters[0].Mean),
			Size:    m,
			Census:  clusters[0].Count,
			Lo:      m,
			Hi:      m,
		})
		if tr != nil {
			tr.Record("infer.size", "", sizeStart, e.Device().Now().Sub(sizeStart),
				map[string]any{"rules": m, "levels": 1, "probes": res.ProbesSent, "full": res.CacheFull})
		}
		return res, nil
	}

	// Stage 3: negative-binomial sampling per level.
	for level := range clusters {
		levelStart := e.Device().Now()
		est, probes, err := estimateLevel(e, rng, opts, stop, m, clusters, level)
		if err != nil {
			return nil, err
		}
		res.ProbesSent += probes
		est.MeanRTT = time.Duration(clusters[level].Mean)
		est.Census = clusters[level].Count
		res.Levels = append(res.Levels, est)
		if tr != nil {
			tr.Record("infer.sample", "", levelStart, e.Device().Now().Sub(levelStart),
				map[string]any{"level": level, "size": est.Size, "probes": probes})
		}
	}
	if tr != nil {
		tr.Record("infer.size", "", sizeStart, e.Device().Now().Sub(sizeStart),
			map[string]any{"rules": m, "levels": len(res.Levels), "probes": res.ProbesSent, "full": res.CacheFull})
	}
	return res, nil
}

// minTrials is the fewest trials an adaptive level samples before its stop
// rule is consulted.
const minTrials = 64

// intervalShare is the adaptive stop rule's target precision: sampling ends
// once the 95% interval's half-width is within this share of p̂, about a 2%
// relative standard error.
const intervalShare = 0.04

// stopRule reports whether a level's adaptive sampling ends after k trials
// whose run lengths total sum, having spent probes of its budget.
type stopRule func(k, sum, probes, budget int) bool

// stopWhenTight is Algorithm 1's stop rule: past minTrials, end at the first
// trial boundary where either the budget is spent or the interval is tight.
// It ends no later than the budget alone would, and where the budget runs
// out first it ends exactly where the budget alone does. The comparison is
// strict so that a level with no runs yet (p̂ = 0, a [0, 0] interval) keeps
// sampling.
func stopWhenTight(k, sum, probes, budget int) bool {
	if k < minTrials {
		return false
	}
	if probes >= budget {
		return true
	}
	p, _ := stats.NegBinomialMLESums(k, sum)
	lo, hi, _ := stats.NegBinomialInterval(k, sum)
	return hi-lo < 2*intervalShare*p
}

// estimateLevel runs the per-level sampling experiment of Algorithm 1,
// returning the level's size estimate with its interval and the number of
// probes consumed.
func estimateLevel(e *probe.Engine, rng *rand.Rand, opts SizeOptions, stop stopRule, m int, clusters []cluster.Cluster, level int) (LevelEstimate, int, error) {
	slack := clusterSlack(clusters, level)
	budget := max(6*m, 3000)
	// Only the MLE's sufficient statistics (trial count and total run
	// length) are kept; the per-trial slice would be thousands of entries
	// of pure append traffic.
	trialK, trialSum := 0, 0
	probes := 0
	for {
		if opts.Trials > 0 {
			if trialK >= opts.Trials {
				break
			}
		} else if stop(trialK, trialSum, probes, budget) {
			break
		}
		j := 0
		for j < m {
			id := opts.FlowIDBase + uint32(rng.Intn(m))
			rtt, _, err := e.Probe(id)
			if err != nil {
				return LevelEstimate{}, probes, err
			}
			probes++
			if !cluster.Within(clusters[level], float64(rtt), slack) {
				break
			}
			j++
		}
		trialK++
		trialSum += j
	}
	p, err := stats.NegBinomialMLESums(trialK, trialSum)
	if err != nil {
		return LevelEstimate{}, probes, err
	}
	lo, hi, _ := stats.NegBinomialInterval(trialK, trialSum)
	n := float64(m)
	return LevelEstimate{
		Size: int(n*p + 0.5),
		Lo:   int(math.Floor(n * lo)),
		Hi:   int(math.Ceil(n * hi)),
	}, probes, nil
}

// clusterSlack widens a cluster's acceptance band to half the gap to its
// nearest neighbour, so fresh RTT draws from the same latency tier — which
// jitter can push slightly outside the originally observed min/max — still
// classify correctly.
func clusterSlack(clusters []cluster.Cluster, level int) float64 {
	c := clusters[level]
	slack := c.Mean * 0.25
	for i, o := range clusters {
		if i == level {
			continue
		}
		gap := o.Min - c.Max
		if o.Max < c.Min {
			gap = c.Min - o.Max
		}
		if gap > 0 && gap/2 < slack {
			slack = gap / 2
		}
	}
	return slack
}

// String renders the result compactly.
func (r *SizeResult) String() string {
	s := fmt.Sprintf("m=%d full=%v levels=[", r.RulesInstalled, r.CacheFull)
	for i, l := range r.Levels {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("{%v:%d}", l.MeanRTT.Round(10*time.Microsecond), l.Size)
	}
	return s + "]"
}

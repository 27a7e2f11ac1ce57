package infer

import (
	"math/rand"

	"tango/internal/core/pattern"
	"tango/internal/core/probe"
)

// CurveOptions tunes MeasurePriorityCurves.
type CurveOptions struct {
	// Counts are the rule counts to measure; zero-length selects a small
	// default sweep. Every count must fit the device's total capacity.
	Counts []int
	// Seed drives the random ordering.
	Seed int64
}

// curveFlowIDBase offsets MeasurePriorityCurves' probe flow IDs.
const curveFlowIDBase = 5 << 20

func (o CurveOptions) withDefaults() CurveOptions {
	if len(o.Counts) == 0 {
		o.Counts = []int{50, 200, 500, 1000}
	}
	return o
}

// MeasurePriorityCurves measures the total installation time of n fresh
// rules under each of the four priority orderings, for each n in Counts —
// the probing pattern behind Figure 3(c). It returns the curves; the score
// card does not keep them. The device's tables are restored between runs
// by deleting the installed rules, so a single (initially empty) device
// serves the whole sweep.
func MeasurePriorityCurves(e *probe.Engine, opts CurveOptions) (map[pattern.Order][]pattern.CurvePoint, error) {
	opts = opts.withDefaults()
	out := make(map[pattern.Order][]pattern.CurvePoint, len(pattern.Orders))
	maxN := -1 // largest count known to fit; -1 = unknown
	for _, order := range pattern.Orders {
		for _, n := range opts.Counts {
			if maxN >= 0 && n > maxN {
				continue // exceeded device capacity in an earlier order
			}
			rng := rand.New(rand.NewSource(opts.Seed + int64(n)))
			p := pattern.PriorityInstall(n, order, rng)
			// Rebase flow IDs into the dedicated block.
			ops := make([]pattern.Op, len(p.Ops))
			for i, op := range p.Ops {
				op.FlowID += curveFlowIDBase
				ops[i] = op
			}
			total, err := e.TimeOps(ops)
			// Restore the device before judging the outcome (deletes of
			// never-installed rules are no-ops).
			for _, op := range ops {
				_ = e.Delete(op.FlowID, op.Priority)
			}
			if err != nil {
				// Count exceeds the device's capacity: clamp the sweep and
				// keep the measurements that fit.
				maxN = n - 1
				continue
			}
			out[order] = append(out[order], pattern.CurvePoint{N: n, Total: total})
		}
	}
	return out, nil
}

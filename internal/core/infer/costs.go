package infer

import (
	"time"

	"tango/internal/core/pattern"
	"tango/internal/core/probe"
	"tango/internal/packet"
	"tango/internal/stats"
)

// CostOptions tunes MeasureCosts.
type CostOptions struct {
	// Samples is the number of operations timed per cost class. Zero
	// means 128.
	Samples int
}

// costBasePriority anchors the priority ranges MeasureCosts uses.
const costBasePriority uint16 = 20000

func (o CostOptions) withDefaults() CostOptions {
	if o.Samples == 0 {
		o.Samples = defaultCostSamples
	}
	return o
}

// defaultCostSamples is CostOptions.Samples' default.
const defaultCostSamples = 128

// MeasureCosts fits a control-channel ScoreCard for the device by timing
// four rewriting patterns:
//
//   - same-priority adds          → AddSamePriority
//   - ascending-priority adds     → AddNewPriority (no shifts by design)
//   - descending-priority adds    → ShiftPerEntry (slope of per-op latency
//     against the number of higher-priority entries already present)
//   - modify and delete sweeps    → Mod, Del
//
// All rules are installed under a dedicated flow-ID block and removed
// afterwards. The card is the scheduler's cost oracle; its quality is what
// turns "Tango patterns" into installation-time wins (§6, §7).
func MeasureCosts(e *probe.Engine, switchName string, opts CostOptions) (*pattern.ScoreCard, error) {
	opts = opts.withDefaults()
	n := opts.Samples
	card := &pattern.ScoreCard{SwitchName: switchName}
	w := takeScratch()
	defer w.release()

	// Every phase's ops are built in one buffer, sized for the largest
	// (phase 6's pairs): a phase is done with its ops before the next one
	// builds its own.
	w.ops = resize(w.ops, 2*n)
	buf := w.ops

	// Phase 1: same-priority adds.
	base := packet.CostFlows.Base()
	sameOps := buf[:n]
	for i := range sameOps {
		sameOps[i] = pattern.Op{Kind: pattern.OpAdd, FlowID: base + uint32(i), Priority: costBasePriority}
	}
	res, err := e.Run(pattern.Pattern{Name: "cost/same", Ops: sameOps})
	if err != nil {
		return nil, err
	}
	// Skip the first op: it may pay the new-priority-band cost.
	card.AddSamePriority = meanLatency(res.Latencies[1:])

	// Phase 2: modify sweep over the same rules.
	modOps := buf[:n]
	for i := range modOps {
		modOps[i] = pattern.Op{Kind: pattern.OpMod, FlowID: base + uint32(i), Priority: costBasePriority}
	}
	if res, err = e.Run(pattern.Pattern{Name: "cost/mod", Ops: modOps}); err != nil {
		return nil, err
	}
	card.Mod = meanLatency(res.Latencies)

	// Phase 3: delete sweep.
	delOps := buf[:n]
	for i := range delOps {
		delOps[i] = pattern.Op{Kind: pattern.OpDel, FlowID: base + uint32(i), Priority: costBasePriority}
	}
	if res, err = e.Run(pattern.Pattern{Name: "cost/del", Ops: delOps}); err != nil {
		return nil, err
	}
	card.Del = meanLatency(res.Latencies)

	// Phase 4: ascending-priority adds — every add tops the table, so no
	// higher-priority entries exist and the per-op cost is the clean
	// new-priority baseline.
	base += uint32(n)
	ascOps := buf[:n]
	for i := range ascOps {
		ascOps[i] = pattern.Op{Kind: pattern.OpAdd, FlowID: base + uint32(i), Priority: costBasePriority + 1 + uint16(i)}
	}
	if res, err = e.Run(pattern.Pattern{Name: "cost/asc", Ops: ascOps}); err != nil {
		return nil, err
	}
	card.AddNewPriority = meanLatency(res.Latencies)
	e.ClearProbeRules(base, uint32(n), costBasePriority)

	// Phase 5: descending-priority adds — op i sees i higher-priority
	// entries; the latency slope over i is the per-entry shift cost.
	base += uint32(n)
	descOps := buf[:n]
	for i := range descOps {
		descOps[i] = pattern.Op{Kind: pattern.OpAdd, FlowID: base + uint32(i), Priority: costBasePriority - 1 - uint16(i)}
	}
	if res, err = e.Run(pattern.Pattern{Name: "cost/desc", Ops: descOps}); err != nil {
		return nil, err
	}
	w.xy = resize(w.xy, 2*len(res.Latencies))
	xy := w.xy
	xs, ys := xy[:len(res.Latencies)], xy[len(res.Latencies):]
	for i, d := range res.Latencies {
		xs[i] = float64(i)
		ys[i] = float64(d)
	}
	if _, slope, err := stats.LinearFit(xs, ys); err == nil && slope > 0 {
		card.ShiftPerEntry = time.Duration(slope)
	}
	e.ClearProbeRules(base, uint32(n), costBasePriority)

	// Phase 6: alternating add/delete pairs expose the batching effect —
	// the per-op surcharge agents pay when the operation class changes.
	base += uint32(n)
	altOps := buf[:0]
	for i := 0; i < n; i++ {
		altOps = append(altOps,
			pattern.Op{Kind: pattern.OpAdd, FlowID: base + uint32(i), Priority: costBasePriority},
			pattern.Op{Kind: pattern.OpDel, FlowID: base + uint32(i), Priority: costBasePriority},
		)
	}
	if res, err = e.Run(pattern.Pattern{Name: "cost/alternate", Ops: altOps}); err != nil {
		return nil, err
	}
	perOp := meanLatency(res.Latencies[1:])
	flat := (card.AddSamePriority + card.Del) / 2
	if perOp > flat {
		card.TypeSwitch = perOp - flat
	}
	return card, nil
}

// meanLatency averages op latencies.
func meanLatency(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

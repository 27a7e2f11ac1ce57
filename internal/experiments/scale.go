package experiments

import (
	"fmt"
	"time"

	"tango/internal/scale"
)

// scale.go renders the sharded discrete-event scale harness (internal/scale)
// as a benchmark table: all 12 B4 sites on goroutine-parallel shards with
// epoch barriers, a ~million resident flows, live timeout churn, TE
// re-allocation rounds, a link-failure storm, and size inference running
// concurrently. The harness is bit-identical at any shard count (gated by
// TestScaleShardedDifferential), so the table doubles as a determinism
// demonstration: rerunning under GOMAXPROCS=1 must print the same rows,
// wall-clock lines aside.

// Scale runs the B4-wide scale harness once and tabulates the fold.
func Scale(o Options) *Table {
	res, err := scale.Run(scale.Options{
		Flows:  o.ScaleFlows,
		Shards: o.Workers,
		Seed:   1,
	})
	if err != nil {
		return &Table{
			Title:  "Scale harness: error",
			Header: []string{"error"},
			Rows:   [][]string{{err.Error()}},
		}
	}
	t := &Table{
		Title: fmt.Sprintf("Scale harness: %d B4 sites, %d shards, %d epochs",
			res.Sites, res.Shards, res.Epochs),
		Header: []string{"metric", "value"},
	}
	row := func(k, v string) { t.Rows = append(t.Rows, []string{k, v}) }
	row("flows resident (peak)", fmt.Sprint(res.FlowsResident))
	row("flows resident (end)", fmt.Sprint(res.FlowsResidentEnd))
	row("flows distinct", fmt.Sprint(res.FlowsDistinct))
	row("events", fmt.Sprint(res.Events))
	row("events/sec", fmt.Sprintf("%.0f", res.EventsPerSec))
	row("rule ops", fmt.Sprint(res.RuleOps))
	row("expirations", fmt.Sprint(res.Expirations))
	row("pair migrations", fmt.Sprintf("%d (%d skipped)", res.PairMoves, res.MovesSkipped))
	row("probe samples", fmt.Sprint(res.ProbeSamples))
	row("probe RTT p50", fmt.Sprint(res.P50ProbeRTT))
	row("probe RTT p99", fmt.Sprint(res.P99ProbeRTT))
	row("churn applied", fmt.Sprintf("%d (%d installs)", res.ChurnApplied, res.ChurnInstalls))
	row("inference", fmt.Sprintf("%d runs, %d rules, %d probes",
		res.InferRuns, res.InferRules, res.InferProbes))
	row("max shard lag (virtual)", fmt.Sprint(res.MaxShardLag))
	row("table-full rejections", fmt.Sprint(res.TableFull))
	row("device errors", fmt.Sprint(res.Errs))
	row("setup wall", res.SetupWall.Round(time.Millisecond).String())
	row("epochs wall", res.EpochWall.Round(time.Millisecond).String())
	return t
}

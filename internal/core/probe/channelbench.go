package probe

import (
	"fmt"
	"time"

	"tango/internal/core/pattern"
	"tango/internal/stats"
)

// ChannelReport summarises raw control-channel performance — the
// Oflops-style baseline measurements (§8: "Tango builds on Oflops but
// designs smart probing algorithms") that ground every higher-level
// inference.
type ChannelReport struct {
	// AddPerSec, ModPerSec, DelPerSec are sustained same-priority
	// flow-mod rates.
	AddPerSec float64
	ModPerSec float64
	DelPerSec float64
	// FastRTT summarises data-path round trips for an installed flow;
	// PuntRTT for a total miss (controller path).
	FastRTT RTTSummary
	PuntRTT RTTSummary
}

// RTTSummary is a latency distribution digest.
type RTTSummary struct {
	Min    time.Duration
	Mean   time.Duration
	Median time.Duration
	P99    time.Duration
}

func summarize(samples []float64) (RTTSummary, error) {
	if len(samples) == 0 {
		return RTTSummary{}, fmt.Errorf("probe: no samples")
	}
	min, _, err := stats.MinMax(samples)
	if err != nil {
		return RTTSummary{}, err
	}
	med, err := stats.Median(samples)
	if err != nil {
		return RTTSummary{}, err
	}
	p99, err := stats.Percentile(samples, 99)
	if err != nil {
		return RTTSummary{}, err
	}
	return RTTSummary{
		Min:    time.Duration(min),
		Mean:   time.Duration(stats.Mean(samples)),
		Median: time.Duration(med),
		P99:    time.Duration(p99),
	}, nil
}

const (
	// benchFlowIDBase offsets BenchmarkChannel's probe flows.
	benchFlowIDBase uint32 = 6 << 20
	// benchPriority is the priority of the benchmark rules.
	benchPriority uint16 = 700
	// benchOps is the number of flow-mods per rate measurement.
	benchOps = 200
	// benchProbes is the number of RTT samples per path.
	benchProbes = 200
)

// BenchmarkChannel measures the device's raw control-channel rates and
// data-path RTT distributions. The device is left clean.
func BenchmarkChannel(e *Engine) (*ChannelReport, error) {
	rep := &ChannelReport{}

	rate := func(kind pattern.OpKind) (float64, error) {
		ops := make([]pattern.Op, benchOps)
		for i := range ops {
			ops[i] = pattern.Op{Kind: kind, FlowID: benchFlowIDBase + uint32(i), Priority: benchPriority}
		}
		d, err := e.TimeOps(ops)
		if err != nil {
			return 0, err
		}
		if d <= 0 {
			return 0, fmt.Errorf("probe: zero elapsed time")
		}
		return float64(benchOps) / d.Seconds(), nil
	}
	var err error
	if rep.AddPerSec, err = rate(pattern.OpAdd); err != nil {
		return nil, fmt.Errorf("probe: add rate: %w", err)
	}
	if rep.ModPerSec, err = rate(pattern.OpMod); err != nil {
		return nil, fmt.Errorf("probe: mod rate: %w", err)
	}

	// RTT distributions while the rules are installed.
	fast := make([]float64, 0, benchProbes)
	for i := 0; i < benchProbes; i++ {
		rtt, punted, err := e.Probe(benchFlowIDBase + uint32(i%benchOps))
		if err != nil {
			return nil, err
		}
		if !punted {
			fast = append(fast, float64(rtt))
		}
	}
	if rep.FastRTT, err = summarize(fast); err != nil {
		return nil, fmt.Errorf("probe: fast path: %w", err)
	}
	punt := make([]float64, 0, benchProbes)
	missBase := benchFlowIDBase + uint32(benchOps) + 1000
	for i := 0; i < benchProbes; i++ {
		rtt, punted, err := e.Probe(missBase + uint32(i))
		if err != nil {
			return nil, err
		}
		if punted {
			punt = append(punt, float64(rtt))
		}
	}
	if rep.PuntRTT, err = summarize(punt); err != nil {
		return nil, fmt.Errorf("probe: punt path: %w", err)
	}

	if rep.DelPerSec, err = rate(pattern.OpDel); err != nil {
		return nil, fmt.Errorf("probe: del rate: %w", err)
	}
	return rep, nil
}

// String renders the report for CLI output.
func (r *ChannelReport) String() string {
	f := func(s RTTSummary) string {
		return fmt.Sprintf("min=%v mean=%v median=%v p99=%v",
			s.Min.Round(10*time.Microsecond), s.Mean.Round(10*time.Microsecond),
			s.Median.Round(10*time.Microsecond), s.P99.Round(10*time.Microsecond))
	}
	return fmt.Sprintf("channel: add=%.0f/s mod=%.0f/s del=%.0f/s\n  fast path RTT: %s\n  punt path RTT: %s",
		r.AddPerSec, r.ModPerSec, r.DelPerSec, f(r.FastRTT), f(r.PuntRTT))
}

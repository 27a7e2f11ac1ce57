package tango

// bench_test.go holds the one run benchmark/README.md says does not fit the
// gated benchmark: the 256-member fleet. It is report-only — its b.Fatalf
// checks on deterministic outcomes are the only gate, and nothing judges its
// wall-clock numbers. benchmark/ with -compare is the one place a timing is
// produced or judged; the paper's tables and figures are regenerated by
// cmd/tangobench and asserted by the internal/experiments and
// internal/conformance tests.
//
//	go test -run '^$' -bench . -benchtime 1x -benchmem .

import (
	"testing"
	"time"

	"tango/internal/fleet"
	"tango/internal/ofconn"
)

// BenchmarkFleetSustained runs the continuous-inference controller service
// at fleet scale: 248 simulated members plus 8 real-TCP members served
// through the switchd path, every one probed, size-inferred, and cost-fitted
// over repeated rounds on the shared fan-out. The fold is bit-identical at
// any worker count (TestFleetShardedDifferential). Headline metrics:
// completed inferences per wall second, flow-mods per wall second, and the
// p99 sentinel-probe RTT.
func BenchmarkFleetSustained(b *testing.B) {
	tcp, err := fleet.SpawnSimTCP(8, 1, 1e-6, ofconn.ControllerOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer tcp.Close()
	var res *fleet.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := fleet.Run(fleet.Options{
			Switches: 248,
			Rounds:   2,
			Seed:     1,
			TCP:      tcp.Fleet,
		})
		if err != nil {
			b.Fatal(err)
		}
		if n := r.Switches + r.TCPSwitches; n < 256 {
			b.Fatalf("fleet size = %d members, want >= 256", n)
		}
		if r.InferErrs != 0 {
			b.Fatalf("inference errors: %d", r.InferErrs)
		}
		res = r
	}
	b.ReportMetric(float64(res.Switches+res.TCPSwitches), "switches")
	b.ReportMetric(res.SwitchesPerSec, "switches-inferred/sec")
	b.ReportMetric(res.FlowModsPerSec, "flow-mods/sec")
	b.ReportMetric(float64(res.P99ProbeRTT)/float64(time.Millisecond), "p99-probe-rtt-ms")
}

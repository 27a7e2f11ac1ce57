package tango

// bench_test.go holds one benchmark per table and figure of the paper's
// evaluation. Each benchmark regenerates its experiment on emulated
// switches (virtual time, so wall time measures the framework, not the
// simulated network) and reports the headline quantity of that experiment
// as a custom metric, so `go test -bench` doubles as the reproduction run:
//
//	go test -bench=. -benchmem
//
// cmd/tangobench prints the full rows/series; EXPERIMENTS.md records the
// paper-vs-measured comparison.

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"tango/internal/conformance"
	"tango/internal/core/sched"
	"tango/internal/experiments"
	"tango/internal/fleet"
	"tango/internal/ofconn"
	"tango/internal/scale"
	"tango/internal/telemetry"
)

// cell parses "1.234s" or "12.3%" table cells into a float.
func cell(b *testing.B, s string) float64 {
	b.Helper()
	s = strings.TrimSuffix(strings.TrimSuffix(s, "s"), "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		b.Fatalf("cell %q: %v", s, err)
	}
	return v
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Table1(experiments.Options{})
		if len(t.Rows) != 4 {
			b.Fatal("bad table")
		}
	}
}

func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		figs := experiments.Figure2()
		if len(figs) != 3 {
			b.Fatal("bad figures")
		}
	}
}

func BenchmarkFigure3a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Figure3a(3)
		if len(t.Rows) != 6 {
			b.Fatal("bad table")
		}
	}
}

func BenchmarkFigure3b(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		fig := experiments.Figure3b([]int{500, 2000, 5000})
		var add, mod float64
		for _, s := range fig.Series {
			if s.Name == "add flow (Switch#1)" {
				add = s.Y[len(s.Y)-1]
			}
			if s.Name == "mod flow (Switch#1)" {
				mod = s.Y[len(s.Y)-1]
			}
		}
		ratio = add / mod
	}
	b.ReportMetric(ratio, "add/mod@5000")
}

func BenchmarkFigure3c(b *testing.B) {
	var boost float64
	for i := 0; i < b.N; i++ {
		fig := experiments.Figure3c([]int{2000})
		var same, desc float64
		for _, s := range fig.Series {
			switch s.Name {
			case "same priority (Switch#1)":
				same = s.Y[0]
			case "descending priority (Switch#1)":
				desc = s.Y[0]
			}
		}
		boost = desc / same
	}
	b.ReportMetric(boost, "desc/same@2000")
}

func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig := experiments.Figure5()
		if len(fig.Series[0].Y) != 2500 {
			b.Fatal("bad series")
		}
	}
}

func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig := experiments.Figure6()
		if len(fig.Series) != 4 {
			b.Fatal("bad figure")
		}
	}
}

func BenchmarkSizeInference(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		t := experiments.SizeAccuracy(experiments.Options{})
		worst = 0
		for _, row := range t.Rows {
			if v := cell(b, row[4]); v > worst {
				worst = v
			}
		}
	}
	b.ReportMetric(worst, "worst-err-%")
}

func BenchmarkPolicyInference(b *testing.B) {
	var correct float64
	for i := 0; i < b.N; i++ {
		t := experiments.PolicyAccuracy(experiments.Options{})
		correct = 0
		for _, row := range t.Rows[:4] {
			if row[2] == "yes" {
				correct++
			}
		}
	}
	b.ReportMetric(correct, "correct-of-4")
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Table2()
		if len(t.Rows) != 3 {
			b.Fatal("bad table")
		}
	}
}

func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		figs := experiments.Figure8(3)
		if len(figs) != 3 {
			b.Fatal("bad figures")
		}
	}
}

func BenchmarkFigure9(b *testing.B) {
	var win float64
	for i := 0; i < b.N; i++ {
		figs := experiments.Figure9(3)
		// Headline: Topo Asc vs Topo Rand improvement on file 1.
		var opt, rnd float64
		for _, s := range figs[0].Series {
			var sum float64
			for _, y := range s.Y {
				sum += y
			}
			mean := sum / float64(len(s.Y))
			switch s.Name {
			case "Topo Asc":
				opt = mean
			case "Topo Rand":
				rnd = mean
			}
		}
		win = 100 * (1 - opt/rnd)
	}
	b.ReportMetric(win, "improv-%")
}

func BenchmarkFigure10(b *testing.B) {
	var lfImprove float64
	for i := 0; i < b.N; i++ {
		t := experiments.Figure10()
		lfImprove = cell(b, t.Rows[0][4])
	}
	b.ReportMetric(lfImprove, "LF-improv-%")
}

func BenchmarkFigure11(b *testing.B) {
	var enfWin float64
	for i := 0; i < b.N; i++ {
		t := experiments.Figure11()
		dio := cell(b, t.Rows[0][1])
		enf := cell(b, t.Rows[0][3])
		enfWin = 100 * (1 - enf/dio)
	}
	b.ReportMetric(enfWin, "addonly-enforce-improv-%")
}

// BenchmarkAdversarial runs the adversarial/churn scenario catalog
// (conformance/scenarios.go) end to end and reports its gate metrics: every
// pinned verdict must hold (gate-fails == 0), the overflow detector must
// fire on the attack trace (attack-alarms >= 1) and stay silent on the
// clean Zipf replay (clean-alarms == 0), and the worst size estimate across
// the adversarial scenarios regress-gates throughput-with-interference.
func BenchmarkAdversarial(b *testing.B) {
	var fails, attackAlarms, cleanAlarms, worstErr float64
	for i := 0; i < b.N; i++ {
		fails, attackAlarms, cleanAlarms, worstErr = 0, 0, 0, 0
		for _, r := range conformance.RunScenarios() {
			if !r.Pass {
				fails++
			}
			switch r.Scenario.Name {
			case "overflow-attack-timing":
				attackAlarms = float64(r.Alarms)
			case "overflow-clean-zipf":
				cleanAlarms = float64(r.Alarms)
			}
			if r.SizeError > worstErr {
				worstErr = r.SizeError
			}
		}
	}
	b.ReportMetric(fails, "gate-fails")
	b.ReportMetric(attackAlarms, "attack-alarms")
	b.ReportMetric(cleanAlarms, "clean-alarms")
	b.ReportMetric(100*worstErr, "worst-adv-err-%")
}

// schedWorkloadDims sizes BenchmarkSchedRun: a deep DAG (the Figure 11
// shape) over a large fleet, so the benchmark exercises the per-round
// frontier maintenance, the pattern oracle, and the executor together.
const (
	schedBenchSwitches = 32
	schedBenchTotal    = 6400
	schedBenchLevels   = 40
	schedBenchSeed     = 11
)

func BenchmarkSchedRun(b *testing.B) {
	_, db := experiments.SchedWorkload(schedBenchSwitches, schedBenchTotal, schedBenchLevels, schedBenchSeed)
	tg := &sched.Tango{DB: db, SortPriorities: true}
	ex := sched.CardExecutor{DB: db}

	// The Dionysus/Tango makespan ratio is the paper-metric regression gate
	// (Figure 10's headline): measured once, outside the timed loop.
	gD, _ := experiments.SchedWorkload(schedBenchSwitches, schedBenchTotal, schedBenchLevels, schedBenchSeed)
	dio, err := sched.Run(gD, sched.Dionysus{}, ex, sched.RunOptions{})
	if err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	var makespan float64
	for i := 0; i < b.N; i++ {
		g, _ := experiments.SchedWorkload(schedBenchSwitches, schedBenchTotal, schedBenchLevels, schedBenchSeed)
		res, err := sched.Run(g, tg, ex, sched.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		makespan = res.Makespan.Seconds()
	}
	b.ReportMetric(makespan, "makespan-s")
	b.ReportMetric(dio.Makespan.Seconds()/makespan, "dio/tango-ratio")
}

func BenchmarkTangoOrder(b *testing.B) {
	_, db := experiments.SchedWorkload(1, 1, 1, 1)
	tg := &sched.Tango{DB: db, SortPriorities: true}
	// One switch's worth of a big mixed round: the inner loop of every
	// scheduling figure.
	g, _ := experiments.SchedWorkload(1, 512, 1, schedBenchSeed)
	reqs := make([]*sched.Request, 0, 512)
	for _, id := range g.Nodes() {
		reqs = append(reqs, g.Payload(id))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := tg.Order("bench-00", reqs, nil, nil); len(got) != len(reqs) {
			b.Fatal("order dropped requests")
		}
	}
}

func BenchmarkFigure12(b *testing.B) {
	var improve float64
	for i := 0; i < b.N; i++ {
		t := experiments.Figure12(600)
		improve = cell(b, t.Rows[1][2])
	}
	b.ReportMetric(improve, "improv-%")
}

// BenchmarkScaleHarness runs the B4-wide sharded scale harness at full
// scale: ≥1M resident flow rules across 12 goroutine-parallel sites, live
// timeout churn, TE re-allocation rounds, a link-failure storm, and size
// inference running concurrently, with epoch barriers keeping the outcome
// bit-identical to a serial run (TestScaleShardedDifferential). Headline
// metrics: resident flows, discrete events per wall second, and the p99
// emulated probe RTT.
func BenchmarkScaleHarness(b *testing.B) {
	var res *scale.Result
	for i := 0; i < b.N; i++ {
		r, err := scale.Run(scale.Options{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if r.FlowsResident < 1<<20 {
			b.Fatalf("FlowsResident = %d, want >= %d", r.FlowsResident, 1<<20)
		}
		if r.Errs != 0 || r.TableFull != 0 {
			b.Fatalf("errs=%d tableFull=%d, want 0", r.Errs, r.TableFull)
		}
		res = r
	}
	b.ReportMetric(float64(res.FlowsResident), "flows-resident")
	b.ReportMetric(res.EventsPerSec, "events/sec")
	b.ReportMetric(float64(res.P99ProbeRTT)/float64(time.Millisecond), "p99-probe-rtt-ms")
	b.ReportMetric(float64(res.TableFull), "table-full")
}

// BenchmarkFleetSustained runs the continuous-inference controller service
// at fleet scale: 248 simulated members plus 8 real-TCP members served
// through the switchd path, every one probed, size-inferred, and cost-fitted
// over repeated rounds on the sharded worker pool. The fold is bit-identical
// at any worker count (TestFleetShardedDifferential). Headline metrics:
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

// BenchmarkTelemetryVecRecord measures the labeled hot path end to end as
// the probe engine drives it: one labeled counter add plus one labeled
// histogram observation per op, with a flight-recorder append alongside.
// The allocs-per-run probe is the PR's hard gate — the labeled record path
// must stay allocation-free, same as the unlabeled handles.
func BenchmarkTelemetryVecRecord(b *testing.B) {
	reg := telemetry.NewRegistry()
	cv := reg.CounterVec("bench.ops", "switch")
	hv := reg.HistogramVec("bench.rtt_ns", "switch")
	fr := telemetry.NewFlightRecorder(1024)
	c, h, tr := cv.With("sw1"), hv.With("sw1"), fr.Track("sw1")
	now := time.Now()

	if n := testing.AllocsPerRun(100, func() {
		cv.With("sw1").Add(1)
		hv.With("sw1").Observe(42)
		tr.Record(now, now, time.Millisecond, 7, false)
	}); n != 0 {
		b.Fatalf("labeled record path allocates %v objects/op, want 0", n)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(1)
		h.Observe(float64(i))
		tr.Record(now, now, time.Duration(i), uint32(i), false)
	}
}

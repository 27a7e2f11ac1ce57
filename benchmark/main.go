// Command benchmark is the repository's one benchmark: six closed-loop
// workloads over the whole probe path, end-to-end metrics from an untraced
// window, and per-layer metrics plus a layer budget from a traced one. See
// README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of a single-workload run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one line of <out>/results.jsonl: a result with what produced it.
// -compare reads two such files.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Env      env     `json:"env"`
	Result   result  `json:"result"`
}

// env describes the host, so snapshots from different hosts can be told
// apart (and normalised by harness.calibration_ms).
type env struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func hostEnv() env {
	e := env{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPUModel: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return e
}

type config struct {
	seed    int64
	seconds float64
	trace   bool
	out     string
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Int64("seed", 1, "seed every input is generated from")
		seconds = flag.Float64("seconds", 25, "length of the measured window")
		trace   = flag.Int("trace", 0, "1: traced run — per-layer metrics and the layer budget; 0: end-to-end metrics")
		out     = flag.String("out", filepath.Join("benchmark", "out"), "directory for results.jsonl and trace files")
		spec    = flag.String("spec", "BENCHMARK.json", "benchmark contract, read by -compare for the bounds")
		compare = flag.Bool("compare", false, "compare two results.jsonl files given as arguments; exit 1 on a regression")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two results.jsonl files, got %d arguments", flag.NArg()))
		}
		worse, err := compareFiles(os.Stdout, *spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("-seconds must be positive and -trace 0 or 1"))
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out}
	defs := catalog
	if *name != "all" {
		d, ok := findWorkload(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		defs = []workloadDef{d}
	}
	e := hostEnv()
	fmt.Printf("host: %s, nproc %d, GOMAXPROCS %d, %s; loopback TCP, not a real link\n", e.CPUModel, e.NumCPU, e.GOMAXPROCS, e.GoVersion)
	ok := true
	for _, d := range defs {
		res, err := run(os.Stdout, d, cfg)
		if err != nil {
			fatal(err)
		}
		if err := appendRecord(cfg, d.name, e, res); err != nil {
			fatal(err)
		}
		ok = ok && res.Correct
		// The result object is the last line a single-workload run prints.
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", line)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// run measures one workload and prints its report.
func run(w io.Writer, d workloadDef, cfg config) (result, error) {
	mode := "end-to-end (tracing off)"
	if cfg.trace {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "\n== %s: %s, seed %d, %.3gs window, closed loop, %d generator goroutine(s) ==\n", d.name, mode, cfg.seed, cfg.seconds, genWorkers())
	var (
		res result
		err error
	)
	if cfg.trace {
		res, err = runTraced(w, d, cfg)
	} else {
		res, err = runEndToEnd(w, d, cfg)
	}
	if err != nil {
		return res, err
	}
	for name, v := range res.Metrics {
		if !finite(v.Value) {
			return res, fmt.Errorf("%s: metric %s is %v", d.name, name, v.Value)
		}
	}
	printMetrics(w, res.Metrics)
	fmt.Fprintf(w, "ops attempted %d, failed %d, correct %v\n", res.Attempted, res.Failed, res.Correct)
	return res, nil
}

func printMetrics(w io.Writer, ms map[string]metricValue) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-36s %16.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// finishChecked tears the lane's workload down, folds its end-of-run checks
// into the window's failure count and prints the failures.
func finishChecked(w io.Writer, l *lane) {
	for _, err := range l.w.finish() {
		l.win.attempted++
		l.win.failed++
		l.win.failures = append(l.win.failures, "end-of-run check: "+err.Error())
	}
	for _, f := range l.win.failures {
		fmt.Fprintln(w, "  FAILED:", f)
	}
}

// runEndToEnd is the untraced run: set-ups, warm-up, one window, set-ups,
// with the host reference sampled throughout.
func runEndToEnd(w io.Writer, d workloadDef, cfg config) (result, error) {
	ref := newHostRef()
	budget := math.Min(setupShare*cfg.seconds, setupBudget) / 2
	setups, err := repeatSetups(d, cfg.seed, budget, ref)
	if err != nil {
		return result{}, err
	}
	l, setupS, err := newLane(d, cfg.seed, nil, ref)
	if err != nil {
		return result{}, err
	}
	setups = append(setups, setupS)
	measure(cfg.seconds, ref, l)
	finishChecked(w, l)
	after, err := repeatSetups(d, cfg.seed, budget, ref)
	if err != nil {
		return result{}, err
	}
	setups = append(setups, after...)

	win, slow := l.win, ref.slowdown()
	opMS := win.cycleS * 1e3 * float64(win.cycles) / float64(win.ops)
	fmt.Fprintf(w, "%d ops in the window (%d cycles of %d), %d set-ups; work unit: %s\n", win.ops, win.cycles, l.w.cycle(), len(setups), d.unit)
	fmt.Fprintf(w, "host reference: %d ops, median %.4g ms, %.3f of nominal; time metrics below are divided by that\n", len(ref.samples), median(ref.samples)*1e3, slow)
	fmt.Fprintf(w, "as the clock read them: set-up %.4g s, op %.4g ms (median cycle over ops per cycle), op p50 %.4g ms, p95 %.4g ms, cpu %.4g ms per op\n",
		median(setups), opMS, win.p50, win.p95, win.cpuMSPerOp)
	if win.p95Err != nil {
		fmt.Fprintf(w, "  note: the p95 is thin: %v\n", win.p95Err)
	}
	return result{
		Correct:   win.failed == 0,
		Attempted: win.attempted,
		Failed:    win.failed,
		Metrics: map[string]metricValue{
			"setup_s":         {median(setups) / slow, "s"},
			"op_ms":           {opMS / slow, "ms"},
			"work_per_s":      {win.workPerS * slow, "1/s"},
			"alloc_kb_per_op": {win.allocKBPerOp, "KiB"},
			"allocs_per_op":   {win.allocsPerOp, "count"},
		},
	}, nil
}

func appendRecord(cfg config, workload string, e env, res result) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(cfg.out, "results.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(record{workload, cfg.seed, cfg.seconds, cfg.trace, e, res})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
